"""802.11a scrambler and pilot-polarity sequence.

The receiver in the paper "extracts and de-scrambles" the pilot tones before
using them for phase correction; the polarity applied to the pilots of OFDM
symbol ``n`` is element ``n`` of the 127-bit maximal-length sequence
generated by the polynomial x^7 + x^4 + 1 (the same LFSR 802.11a uses for
data scrambling).  :class:`Scrambler` implements the LFSR for payload
scrambling/descrambling over a ``(n_blocks, n_bits)`` stack of blocks, and
:func:`pilot_polarity_sequence` produces the polarity values.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import FloatArray
from repro.utils.bits import BitArray, _as_bit_array


class Scrambler:
    """Self-synchronising 802.11a frame scrambler (x^7 + x^4 + 1).

    Scrambling and descrambling are the same XOR operation, so a single
    ``process`` method serves both directions.  Every row of a stack
    starts the LFSR from ``seed``: one burst stream is one scrambled row.
    """

    def __init__(self, seed: int = 0b1011101) -> None:
        if not 0 < seed < 128:
            raise ConfigurationError("seed must be a non-zero 7-bit value")
        self.seed = seed

    def sequence(self, length: int) -> BitArray:
        """The first ``length`` scrambler bits the LFSR generates from ``seed``.

        The LFSR visits all 127 non-zero states in one cycle, so the bits
        are read off the cached cycle starting at the seed.
        """
        bits, position = _lfsr_cycle()
        start = position[self.seed]
        return np.take(bits, np.arange(start, start + length), mode="wrap")

    def process(self, bits: np.ndarray) -> BitArray:
        """Scramble (or descramble) a stack of blocks ``(n_blocks, n_bits)``.

        Every row is XORed with the same keystream, as if each row started
        from the seed; any other rank raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        data = np.asarray(bits, dtype=np.uint8)
        if data.ndim != 2:
            raise ConfigurationError(
                f"process takes a stack (n_blocks, n_bits), got shape {data.shape}"
            )
        _as_bit_array(data)  # only 0s and 1s
        return data ^ self.sequence(data.shape[1])


#: Length of the maximal x^7 + x^4 + 1 LFSR cycle.
_PERIOD = 127


@functools.lru_cache(maxsize=None)
def _lfsr_cycle() -> Tuple[BitArray, np.ndarray]:
    """One full LFSR cycle: ``(bits, position)``.

    Stepping the register from state 1, ``bits[k]`` is the feedback bit
    the ``k``-th step shifts in, and ``position[s]`` the step at which the
    register holds state ``s``.
    """
    bits = np.zeros(_PERIOD, dtype=np.uint8)
    position = np.zeros(128, dtype=np.int64)
    state = 1
    for k in range(_PERIOD):
        position[state] = k
        bits[k] = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) & 0x7F) | int(bits[k])
    for table in (bits, position):
        table.setflags(write=False)  # shared by every caller
    return bits, position


def pilot_polarity_sequence(length: int = 127) -> FloatArray:
    """Pilot polarity values ``p_n`` in {+1, -1} for OFDM symbols 0..length-1.

    The sequence is the scrambler LFSR output with the all-ones seed, mapped
    0 -> +1 and 1 -> -1, repeating with period 127 for longer bursts.
    """
    if length <= 0:
        raise ConfigurationError("length must be positive")
    scrambler = Scrambler(seed=0b1111111)
    base = scrambler.sequence(127)
    polarity = 1.0 - 2.0 * base.astype(np.float64)
    if length <= 127:
        return polarity[:length]
    repeats = int(np.ceil(length / 127))
    return np.tile(polarity, repeats)[:length]
