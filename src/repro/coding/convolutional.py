"""Generic convolutional encoder with puncturing.

The paper's transmitter streams uncoded data into a "generic convolutional
encoder" whose data-path width, code rate ``R`` and puncture pattern are
synthesis-time parameters.  The evaluated configuration is the 802.11a
industry-standard code: constraint length 7, generator polynomials 133/171
(octal), mother rate 1/2, optionally punctured to 2/3 or 3/4.

:class:`ConvolutionalCode` captures the code definition (polynomials and
puncture pattern); :class:`ConvolutionalEncoder` is the streaming encoder.
The matching decoder lives in :mod:`repro.coding.viterbi`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bits import BitArray, _as_bit_array


class CodeRate(str, Enum):
    """Supported effective code rates after puncturing (802.11a set)."""

    RATE_1_2 = "1/2"
    RATE_2_3 = "2/3"
    RATE_3_4 = "3/4"

    @property
    def fraction(self) -> float:
        """Numeric value of the code rate."""
        num, den = self.value.split("/")
        return int(num) / int(den)


#: 802.11a puncture patterns, expressed over the mother-code output pairs
#: (A, B) per input bit.  A ``1`` keeps the coded bit, ``0`` deletes it.
PUNCTURE_PATTERNS = {
    CodeRate.RATE_1_2: np.array([[1], [1]], dtype=np.uint8),
    CodeRate.RATE_2_3: np.array([[1, 1], [1, 0]], dtype=np.uint8),
    CodeRate.RATE_3_4: np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8),
}


@dataclass(frozen=True)
class ConvolutionalCode:
    """Definition of a rate-1/n convolutional mother code plus puncturing.

    Parameters
    ----------
    constraint_length:
        Total memory + 1 (the 802.11a code uses 7).
    generators:
        Generator polynomials given as octal integers (e.g. ``(0o133, 0o171)``),
        most-significant tap corresponding to the current input bit.
    puncture_pattern:
        Array of shape ``(n_outputs, period)`` of 0/1 flags; defaults to no
        puncturing.  The 802.11a patterns are available in
        :data:`PUNCTURE_PATTERNS`.
    """

    constraint_length: int = 7
    generators: Tuple[int, ...] = (0o133, 0o171)
    puncture_pattern: np.ndarray = field(
        default_factory=lambda: PUNCTURE_PATTERNS[CodeRate.RATE_1_2]
    )

    def __post_init__(self) -> None:
        if self.constraint_length < 2:
            raise ValueError("constraint_length must be at least 2")
        if len(self.generators) < 2:
            raise ValueError("at least two generator polynomials are required")
        limit = 1 << self.constraint_length
        for g in self.generators:
            if not 0 < g < limit:
                raise ValueError(
                    f"generator {oct(g)} does not fit constraint length {self.constraint_length}"
                )
        pattern = np.asarray(self.puncture_pattern, dtype=np.uint8)
        if pattern.ndim != 2 or pattern.shape[0] != len(self.generators):
            raise ValueError(
                "puncture pattern must have one row per generator polynomial"
            )
        if pattern.size and not np.any(pattern):
            raise ValueError("puncture pattern deletes every coded bit")
        object.__setattr__(self, "puncture_pattern", pattern)

    # ------------------------------------------------------------------
    @classmethod
    def ieee80211a(cls, rate: CodeRate = CodeRate.RATE_1_2) -> "ConvolutionalCode":
        """The 802.11a K=7 (133, 171) code at the requested punctured rate."""
        return cls(
            constraint_length=7,
            generators=(0o133, 0o171),
            puncture_pattern=PUNCTURE_PATTERNS[rate],
        )

    @property
    def n_outputs(self) -> int:
        """Number of mother-code output bits per input bit."""
        return len(self.generators)

    @property
    def memory(self) -> int:
        """Number of shift-register delay elements."""
        return self.constraint_length - 1

    @property
    def n_states(self) -> int:
        """Number of trellis states."""
        return 1 << self.memory

    @property
    def puncture_period(self) -> int:
        """Number of input bits covered by one puncture-pattern period."""
        return self.puncture_pattern.shape[1]

    @property
    def rate(self) -> float:
        """Effective code rate after puncturing."""
        kept = int(self.puncture_pattern.sum())
        return self.puncture_period / kept

    def output_bits(self, state: int, input_bit: int) -> Tuple[int, ...]:
        """Mother-code output bits for ``input_bit`` entering ``state``.

        ``state`` holds the most recent input bit in its MSB, matching the
        hardware shift register.
        """
        register = (input_bit << self.memory) | state
        outputs = []
        for g in self.generators:
            outputs.append(bin(register & g).count("1") & 1)
        return tuple(outputs)

    def next_state(self, state: int, input_bit: int) -> int:
        """Trellis successor state when ``input_bit`` is shifted in."""
        return ((input_bit << self.memory) | state) >> 1

    def build_trellis(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(next_states, outputs)`` tables for the Viterbi decoder.

        ``next_states[state, bit]`` is the successor state and
        ``outputs[state, bit]`` packs the mother-code output bits MSB-first
        (output 0 in the MSB).
        """
        next_states = np.zeros((self.n_states, 2), dtype=np.int64)
        outputs = np.zeros((self.n_states, 2), dtype=np.int64)
        for state in range(self.n_states):
            for bit in (0, 1):
                next_states[state, bit] = self.next_state(state, bit)
                out_bits = self.output_bits(state, bit)
                value = 0
                for b in out_bits:
                    value = (value << 1) | b
                outputs[state, bit] = value
        return next_states, outputs


class ConvolutionalEncoder:
    """Streaming convolutional encoder with optional puncturing and tailing.

    The hardware encoder is a shift register plus XOR trees; this model keeps
    the same state semantics so the Viterbi decoder and the encoder agree on
    the trellis.  :meth:`encode_bit` steps the register one bit at a time;
    :meth:`encode` computes a whole block as one GF(2) convolution per
    generator and leaves the register and puncture phase exactly where the
    bit-serial walk would.
    """

    def __init__(self, code: Optional[ConvolutionalCode] = None) -> None:
        self.code = code if code is not None else ConvolutionalCode.ieee80211a()
        self._state = 0
        self._puncture_phase = 0

    @property
    def state(self) -> int:
        """Current shift-register state."""
        return self._state

    def reset(self) -> None:
        """Return the shift register and puncture phase to the all-zero state."""
        self._state = 0
        self._puncture_phase = 0

    def encode_bit(self, bit: int) -> List[int]:
        """Encode one input bit, returning the surviving (punctured) coded bits."""
        if bit not in (0, 1):
            raise ValueError("input bit must be 0 or 1")
        outputs = self.code.output_bits(self._state, bit)
        self._state = self.code.next_state(self._state, bit)
        column = self._puncture_phase % self.code.puncture_period
        kept = [
            int(out)
            for row, out in enumerate(outputs)
            if self.code.puncture_pattern[row, column]
        ]
        self._puncture_phase = (self._puncture_phase + 1) % self.code.puncture_period
        return kept

    def encode(
        self,
        bits: Sequence[int] | np.ndarray,
        terminate: bool = True,
        reset: bool = True,
    ) -> BitArray:
        """Encode a bit array.

        Parameters
        ----------
        bits:
            Information bits.
        terminate:
            Append ``constraint_length - 1`` zero tail bits so the decoder
            trellis ends in the all-zero state (what the 802.11a tail bits
            do).
        reset:
            Reset the encoder state before encoding (default) so each call is
            an independent code block, matching the per-OFDM-burst operation
            of the hardware.
        """
        data = _as_bit_array(bits)
        if reset:
            self.reset()
        memory = self.code.memory
        # The shift register's contents (oldest bit first) then the input.
        history = (self._state >> np.arange(memory)) & 1
        stream = np.concatenate(
            [history, data, np.zeros(memory if terminate else 0, dtype=np.int64)]
        )
        n_steps = stream.size - memory
        # Output g at step t is the GF(2) convolution of the input with g's
        # taps, tap i weighting the bit entered i steps earlier.
        taps = np.arange(memory, -1, -1)
        mother = np.stack(
            [
                np.convolve(stream, (g >> taps) & 1)[memory : memory + n_steps] & 1
                for g in self.code.generators
            ],
            axis=1,
        )
        period = self.code.puncture_period
        columns = (self._puncture_phase + np.arange(n_steps)) % period
        kept = self.code.puncture_pattern[:, columns].T.astype(bool)
        self._state = int(np.dot(stream[n_steps:], 1 << np.arange(memory)))
        self._puncture_phase = (self._puncture_phase + n_steps) % period
        return mother[kept].astype(np.uint8)

    def coded_length(self, n_info_bits: int, terminate: bool = True) -> int:
        """Number of coded bits produced for ``n_info_bits`` information bits."""
        total_in = n_info_bits + (self.code.memory if terminate else 0)
        pattern = self.code.puncture_pattern
        period = self.code.puncture_period
        per_period = int(pattern.sum())
        full, rem = divmod(total_in, period)
        count = full * per_period
        if rem:
            count += int(pattern[:, :rem].sum())
        return count
