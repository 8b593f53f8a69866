"""LUT-based symbol mapper.

In the hardware, the block-interleaver output forms the address of a ROM
whose contents are the constellation I/Q values; the dual-port nature of the
FPGA memory lets two physical ROMs serve all four transmit channels.  The
software mapper reproduces the same address/LUT semantics; the ROM contents
are :attr:`repro.modulation.constellations.Constellation.points`.
"""

from __future__ import annotations

import numpy.typing as npt

from repro.types import ComplexArray
from repro.modulation.constellations import Constellation, Modulation, get_constellation
from repro.utils.bits import pack_bits


class SymbolMapper:
    """Map interleaved coded bits onto complex constellation symbols."""

    def __init__(self, modulation: Modulation | str) -> None:
        self.constellation: Constellation = get_constellation(modulation)

    @property
    def modulation(self) -> Modulation:
        """The modulation scheme in use."""
        return self.constellation.modulation

    @property
    def bits_per_symbol(self) -> int:
        """LUT address width (coded bits per symbol)."""
        return self.constellation.bits_per_symbol

    def map_bits(self, bits: npt.ArrayLike) -> ComplexArray:
        """Map a coded bit stream to symbols.

        The bit-stream length must be a multiple of ``bits_per_symbol``; bits
        are consumed MSB-first per symbol, exactly as they would form the ROM
        address in hardware.
        """
        addresses = pack_bits(bits, self.bits_per_symbol)
        return self.constellation.points[addresses]
