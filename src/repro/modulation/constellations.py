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


def _pam_level(label: int, n_bits: int) -> float:
    """The 802.11a Gray-mapped PAM level of ``label`` on an axis of
    ``n_bits`` (at most 3) bits; a zero-bit axis, BPSK's Q, sits at 0."""
    index = label ^ (label >> 1) ^ (label >> 2)  # Gray label to level index
    return float(2 * index + 1 - (1 << n_bits))


def _build_constellation(modulation: Modulation) -> Constellation:
    """The LUT of ``modulation``, a separable Gray grid.

    The address's top ``ceil(k/2)`` bits label the I level and its low
    ``floor(k/2)`` bits the Q level, ``address = (I << kq) | Q``; the scale
    ``1/sqrt(mean I energy + mean Q energy)`` gives unit average symbol
    energy, an ``M``-level axis having mean energy ``(M**2 - 1) / 3``.
    """
    k = modulation.bits_per_symbol
    kq = k // 2
    norm = 1.0 / math.sqrt(sum(((1 << (2 * bits)) - 1) / 3 for bits in (k - kq, kq)))
    points = np.array(
        [
            complex(_pam_level(address >> kq, k - kq), _pam_level(address & ((1 << kq) - 1), kq))
            * norm
            for address in range(1 << k)
        ],
        dtype=np.complex128,
    )
    return Constellation(modulation=modulation, points=points, normalization=norm)


_CONSTELLATIONS: Dict[Modulation, Constellation] = {
    mod: _build_constellation(mod) for mod in Modulation
}


def get_constellation(modulation: Modulation | str) -> Constellation:
    """Return the (cached) constellation for a modulation scheme."""
    return _CONSTELLATIONS[Modulation.from_any(modulation)]
