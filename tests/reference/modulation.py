"""Per-symbol demapper references: nearest point and max-log-MAP LLRs."""

from __future__ import annotations

import numpy as np

from repro.modulation.demapper import SymbolDemapper
from repro.utils.bits import unpack_bits


def hard_decisions_serial(demapper: SymbolDemapper, symbols: np.ndarray) -> np.ndarray:
    """Nearest-point bits, one symbol at a time."""
    points = demapper.constellation.points
    received = np.asarray(symbols, dtype=np.complex128).ravel()
    bits = []
    for symbol in received:
        distances = np.abs(symbol - points) ** 2
        bits.append(unpack_bits([int(np.argmin(distances))], demapper.bits_per_symbol))
    if not bits:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(bits)


def soft_decisions_serial(
    demapper: SymbolDemapper, symbols: np.ndarray, noise_variance: float = 1.0
) -> np.ndarray:
    """Max-log-MAP LLRs (positive means bit 0), one symbol and bit at a time."""
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    points = demapper.constellation.points
    bit_table = demapper.constellation.bit_table()
    received = np.asarray(symbols, dtype=np.complex128).ravel()
    k = demapper.bits_per_symbol
    llrs = np.zeros((received.size, k), dtype=np.float64)
    for index, symbol in enumerate(received):
        distances = np.abs(symbol - points) ** 2
        for bit in range(k):
            mask_zero = bit_table[:, bit] == 0
            d_zero = distances[mask_zero].min()
            d_one = distances[~mask_zero].min()
            llrs[index, bit] = (d_one - d_zero) / noise_variance
    return llrs.ravel()


def demap_serial(
    demapper: SymbolDemapper,
    symbols: np.ndarray,
    soft: bool = False,
    noise_variance: float = 1.0,
) -> np.ndarray:
    """Hard bits or soft LLRs, per the receiver's decision mode."""
    if soft:
        return soft_decisions_serial(demapper, symbols, noise_variance)
    return hard_decisions_serial(demapper, symbols)
