"""Gray-mapped constellations (BPSK, QPSK, 16-QAM, 64-QAM).

The paper's symbol mapper is a look-up memory: the interleaver output bits
form the address (1, 2, 4 or 6 bits wide depending on the modulation scheme)
and each location stores the corresponding I/Q pair.  This module builds
exactly those look-up tables, using the 802.11a Gray mapping and
normalisation factors so every constellation has unit average power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict

import numpy as np

from repro.exceptions import ConfigurationError


class Modulation(str, Enum):
    """Supported modulation schemes and their LUT address widths."""

    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "16qam"
    QAM64 = "64qam"

    @property
    def bits_per_symbol(self) -> int:
        """Coded bits per constellation symbol (the LUT address width)."""
        return {
            Modulation.BPSK: 1,
            Modulation.QPSK: 2,
            Modulation.QAM16: 4,
            Modulation.QAM64: 6,
        }[self]

    @classmethod
    def from_any(cls, value: "Modulation | str") -> "Modulation":
        """Accept either a :class:`Modulation` or its string name."""
        if isinstance(value, Modulation):
            return value
        normalized = str(value).strip().lower().replace("-", "").replace("_", "")
        aliases = {
            "bpsk": cls.BPSK,
            "qpsk": cls.QPSK,
            "16qam": cls.QAM16,
            "qam16": cls.QAM16,
            "64qam": cls.QAM64,
            "qam64": cls.QAM64,
        }
        if normalized not in aliases:
            raise ConfigurationError(f"unknown modulation scheme: {value!r}")
        return aliases[normalized]


# 802.11a Gray mapping of bit groups onto one-dimensional PAM levels.
_PAM2 = {0: -1.0, 1: 1.0}
_PAM4 = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}
_PAM8 = {
    0b000: -7.0,
    0b001: -5.0,
    0b011: -3.0,
    0b010: -1.0,
    0b110: 1.0,
    0b111: 3.0,
    0b101: 5.0,
    0b100: 7.0,
}


@dataclass(frozen=True)
class Constellation:
    """A modulation scheme's look-up table and its metadata.

    Attributes
    ----------
    modulation:
        The scheme this table implements.
    points:
        Complex constellation points indexed by the MSB-first bit-group value
        (i.e. the LUT contents, address = interleaved bits).
    normalization:
        The scale factor already applied so average symbol energy is 1.
    """

    modulation: Modulation
    points: np.ndarray
    normalization: float

    @property
    def bits_per_symbol(self) -> int:
        """Coded bits per symbol."""
        return self.modulation.bits_per_symbol

    @property
    def size(self) -> int:
        """Number of constellation points."""
        return self.points.size

    def bit_table(self) -> np.ndarray:
        """Bits of every LUT address, shape ``(size, bits_per_symbol)``, MSB first."""
        k = self.bits_per_symbol
        addresses = np.arange(self.size)
        shifts = np.arange(k - 1, -1, -1)
        return ((addresses[:, None] >> shifts) & 1).astype(np.uint8)


def _build_constellation(modulation: Modulation) -> Constellation:
    k = modulation.bits_per_symbol
    size = 1 << k
    points = np.zeros(size, dtype=np.complex128)
    if modulation is Modulation.BPSK:
        norm = 1.0
        for address in range(size):
            points[address] = complex(_PAM2[address], 0.0)
    elif modulation is Modulation.QPSK:
        norm = 1.0 / math.sqrt(2.0)
        for address in range(size):
            i_bits = (address >> 1) & 0b1
            q_bits = address & 0b1
            points[address] = complex(_PAM2[i_bits], _PAM2[q_bits]) * norm
    elif modulation is Modulation.QAM16:
        norm = 1.0 / math.sqrt(10.0)
        for address in range(size):
            i_bits = (address >> 2) & 0b11
            q_bits = address & 0b11
            points[address] = complex(_PAM4[i_bits], _PAM4[q_bits]) * norm
    else:  # Modulation.QAM64: the enum is exhaustive
        norm = 1.0 / math.sqrt(42.0)
        for address in range(size):
            i_bits = (address >> 3) & 0b111
            q_bits = address & 0b111
            points[address] = complex(_PAM8[i_bits], _PAM8[q_bits]) * norm
    return Constellation(modulation=modulation, points=points, normalization=norm)


_CONSTELLATIONS: Dict[Modulation, Constellation] = {
    mod: _build_constellation(mod) for mod in Modulation
}


def get_constellation(modulation: Modulation | str) -> Constellation:
    """Return the (cached) constellation for a modulation scheme."""
    return _CONSTELLATIONS[Modulation.from_any(modulation)]
