"""Hard and soft symbol demapper (batched).

The paper's symbol demapper is a decoder-multiplexer structure that can be
configured for hard or soft demapping; soft outputs are carried through the
de-interleaver to the Viterbi decoder.  The software model provides:

* hard demapping — nearest constellation point, returning the bit group;
* soft demapping — max-log-MAP per-bit log-likelihood ratios, with the
  convention that a *positive* LLR means the coded bit is more likely ``0``
  (the convention :class:`repro.coding.viterbi.ViterbiDecoder` expects).

All entry points accept symbol arrays of any shape and demap every symbol in
one vectorised pass — the receiver hands a whole burst's
``(n_symbols, n_data_subcarriers)`` block to a single call, which is one of
the two hot paths the :mod:`repro.sim` sweep engine leans on.
"""

from __future__ import annotations

import numpy as np

import numpy.typing as npt

from repro.types import BitArray, IntArray
from repro.modulation.constellations import Constellation, Modulation, get_constellation
from repro.utils.bits import unpack_bits


class SymbolDemapper:
    """Demap received complex symbols to hard bits or soft LLRs."""

    def __init__(self, modulation: Modulation | str) -> None:
        self.constellation: Constellation = get_constellation(modulation)
        self._bit_table = self.constellation.bit_table()
        # Per-bit constellation partitions, precomputed once: the indices of
        # the points whose label has a 0 (resp. 1) in each bit position.
        k = self.constellation.bits_per_symbol
        self._points_bit_zero = [
            np.flatnonzero(self._bit_table[:, bit] == 0) for bit in range(k)
        ]
        self._points_bit_one = [
            np.flatnonzero(self._bit_table[:, bit] != 0) for bit in range(k)
        ]

    @property
    def modulation(self) -> Modulation:
        """The modulation scheme in use."""
        return self.constellation.modulation

    @property
    def bits_per_symbol(self) -> int:
        """Coded bits produced per received symbol."""
        return self.constellation.bits_per_symbol

    # ------------------------------------------------------------------
    def _distances(self, symbols: np.ndarray) -> np.ndarray:
        """Squared Euclidean distance of every symbol to every point."""
        received = np.asarray(symbols, dtype=np.complex128).ravel()
        return np.abs(received[:, None] - self.constellation.points[None, :]) ** 2

    def hard_decisions(self, symbols: npt.ArrayLike) -> BitArray:
        """Nearest-point hard demapping, returning the coded bit stream.

        ``symbols`` may have any shape; every symbol is demapped in one
        vectorised pass and the bits are returned in C-order (for the
        receiver's ``(n_symbols, n_subcarriers)`` block that is exactly the
        per-symbol transmission order).
        """
        return unpack_bits(self.hard_addresses(symbols), self.bits_per_symbol)

    def hard_addresses(self, symbols: npt.ArrayLike) -> IntArray:
        """Nearest-point hard demapping, returning LUT addresses."""
        return np.argmin(self._distances(symbols), axis=1)

    # ------------------------------------------------------------------
    def soft_decisions(
        self, symbols: np.ndarray, noise_variance: float = 1.0
    ) -> np.ndarray:
        """Max-log-MAP per-bit LLRs (positive means bit more likely 0).

        Parameters
        ----------
        symbols:
            Received (equalised) symbols, any shape; all are demapped in one
            batched pass.
        noise_variance:
            Per-complex-dimension noise variance used to scale the LLRs.  A
            constant scale does not change hard Viterbi decisions but keeps
            the soft metric calibrated when different streams see different
            noise levels.
        """
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        distances = self._distances(symbols)
        k = self.bits_per_symbol
        llrs = np.empty((distances.shape[0], k), dtype=np.float64)
        for bit in range(k):
            d_zero = distances[:, self._points_bit_zero[bit]].min(axis=1)
            d_one = distances[:, self._points_bit_one[bit]].min(axis=1)
            llrs[:, bit] = (d_one - d_zero) / noise_variance
        return llrs.ravel()

    # ------------------------------------------------------------------
    def demap(
        self,
        symbols: np.ndarray,
        soft: bool = False,
        noise_variance: float = 1.0,
    ) -> np.ndarray:
        """Demap symbols, selecting hard bits or soft LLRs.

        This mirrors the run-time configurability of the hardware demapper
        ("can be set up to perform hard or soft symbol demapping").
        """
        if soft:
            return self.soft_decisions(symbols, noise_variance=noise_variance)
        return self.hard_decisions(symbols)
