"""802.11a scrambler and pilot-polarity sequence.

The receiver in the paper "extracts and de-scrambles" the pilot tones before
using them for phase correction; the polarity applied to the pilots of OFDM
symbol ``n`` is element ``n`` of the 127-bit maximal-length sequence
generated by the polynomial x^7 + x^4 + 1 (the same LFSR 802.11a uses for
data scrambling).  :class:`Scrambler` implements the LFSR for payload
scrambling/descrambling and :func:`pilot_polarity_sequence` produces the
polarity values.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.utils.bits import BitArray, _as_bit_array
from repro.types import FloatArray


class Scrambler:
    """Self-synchronising 802.11a frame scrambler (x^7 + x^4 + 1).

    Scrambling and descrambling are the same XOR operation, so a single
    ``process`` method serves both directions.
    """

    def __init__(self, seed: int = 0b1011101) -> None:
        if not 0 < seed < 128:
            raise ValueError("seed must be a non-zero 7-bit value")
        self.seed = seed
        self._state = seed

    def reset(self, seed: int | None = None) -> None:
        """Reset the LFSR, optionally with a new seed."""
        if seed is not None:
            if not 0 < seed < 128:
                raise ValueError("seed must be a non-zero 7-bit value")
            self.seed = seed
        self._state = self.seed

    def next_bit(self) -> int:
        """Advance the LFSR one step and return the generated scrambler bit."""
        x7 = (self._state >> 6) & 1
        x4 = (self._state >> 3) & 1
        feedback = x7 ^ x4
        self._state = ((self._state << 1) & 0x7F) | feedback
        return feedback

    def sequence(self, length: int) -> BitArray:
        """Generate ``length`` scrambler bits without consuming input data.

        The LFSR visits all 127 non-zero states in one cycle, so the bits
        are read off the cached cycle starting at the current state.
        """
        bits, states, position = _lfsr_cycle()
        start = position[self._state]
        self._state = int(states[(start + length) % _PERIOD])
        return np.take(bits, np.arange(start, start + length), mode="wrap")

    def process(self, bits: np.ndarray, reset: bool = True) -> BitArray:
        """Scramble (or descramble) a bit stream.

        A 2-D ``(n_blocks, n_bits)`` stack scrambles every row with the same
        keystream, as if each row started from the same LFSR state.
        """
        data = np.asarray(bits, dtype=np.uint8)
        flat = _as_bit_array(data)
        if data.ndim != 2:
            data = flat
        if reset:
            self.reset()
        return data ^ self.sequence(data.shape[-1])


#: Length of the maximal x^7 + x^4 + 1 LFSR cycle.
_PERIOD = 127


@functools.lru_cache(maxsize=None)
def _lfsr_cycle() -> Tuple[BitArray, np.ndarray, np.ndarray]:
    """One full LFSR cycle: ``(bits, states, position)``.

    ``states[k]`` is the register after ``k`` steps from state 1,
    ``bits[k]`` the bit produced by the step leaving ``states[k]``, and
    ``position[s]`` the index of state ``s`` in the cycle.
    """
    lfsr = Scrambler(seed=1)
    bits = np.zeros(_PERIOD, dtype=np.uint8)
    states = np.zeros(_PERIOD, dtype=np.int64)
    for k in range(_PERIOD):
        states[k] = lfsr._state
        bits[k] = lfsr.next_bit()
    position = np.zeros(128, dtype=np.int64)
    position[states] = np.arange(_PERIOD)
    for table in (bits, states, position):
        table.setflags(write=False)  # shared by every caller
    return bits, states, position


def pilot_polarity_sequence(length: int = 127) -> FloatArray:
    """Pilot polarity values ``p_n`` in {+1, -1} for OFDM symbols 0..length-1.

    The sequence is the scrambler LFSR output with the all-ones seed, mapped
    0 -> +1 and 1 -> -1, repeating with period 127 for longer bursts.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    scrambler = Scrambler(seed=0b1111111)
    base = scrambler.sequence(127)
    polarity = 1.0 - 2.0 * base.astype(np.float64)
    if length <= 127:
        return polarity[:length]
    repeats = int(np.ceil(length / 127))
    return np.tile(polarity, repeats)[:length]
