"""Generic convolutional encoder with puncturing.

The paper's transmitter streams uncoded data into a "generic convolutional
encoder" whose data-path width, code rate ``R`` and puncture pattern are
synthesis-time parameters.  The evaluated configuration is the 802.11a
industry-standard code: constraint length 7, generator polynomials 133/171
(octal), mother rate 1/2, optionally punctured to 2/3 or 3/4.

:class:`ConvolutionalCode` captures the code definition (polynomials and
puncture pattern) and the coded length of a block;
:class:`ConvolutionalEncoder` encodes terminated blocks, one per burst
stream as the hardware does, a whole stack of them per call.  The
matching decoder lives in :mod:`repro.coding.viterbi`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import BitArray, _as_bit_array


class CodeRate(str, Enum):
    """Supported effective code rates after puncturing (802.11a set)."""

    RATE_1_2 = "1/2"
    RATE_2_3 = "2/3"
    RATE_3_4 = "3/4"

    @classmethod
    def _missing_(cls, value: object) -> "CodeRate":
        rates = tuple(rate.value for rate in cls)
        raise ConfigurationError(f"unknown code rate {value!r}; expected one of {rates}")

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
            raise ConfigurationError("constraint_length must be at least 2")
        if len(self.generators) < 2:
            raise ConfigurationError("at least two generator polynomials are required")
        limit = 1 << self.constraint_length
        for g in self.generators:
            if not 0 < g < limit:
                raise ConfigurationError(
                    f"generator {oct(g)} does not fit constraint length {self.constraint_length}"
                )
        pattern = np.asarray(self.puncture_pattern, dtype=np.uint8)
        if pattern.ndim != 2 or pattern.shape[0] != len(self.generators):
            raise ConfigurationError(
                "puncture pattern must have one row per generator polynomial"
            )
        if pattern.size and not np.any(pattern):
            raise ConfigurationError("puncture pattern deletes every coded bit")
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

    def coded_length(self, n_info_bits: int) -> int:
        """Coded bits of one terminated block of ``n_info_bits`` information bits."""
        total_in = n_info_bits + self.memory
        per_period = int(self.puncture_pattern.sum())
        full, rem = divmod(total_in, self.puncture_period)
        return full * per_period + int(self.puncture_pattern[:, :rem].sum())

    def build_trellis(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(next_states, outputs)`` tables for the Viterbi decoder.

        ``state`` holds the most recent input bit in its MSB, matching the
        hardware shift register.  ``next_states[state, bit]`` is the
        successor state when ``bit`` is shifted in, and
        ``outputs[state, bit]`` packs the mother-code output bits MSB-first
        (output 0 in the MSB), each the parity of the register's tapped
        bits.
        """
        states = np.arange(self.n_states, dtype=np.int64)[:, None]
        bits = np.arange(2, dtype=np.int64)[None, :]
        registers = (bits << self.memory) | states
        outputs = np.zeros_like(registers)
        for g in self.generators:
            taps = registers & g
            parity = np.zeros_like(taps)
            for shift in range(self.constraint_length):
                parity ^= taps >> shift
            outputs = (outputs << 1) | (parity & 1)
        return registers >> 1, outputs


class ConvolutionalEncoder:
    """Convolutional encoder with puncturing and tailing.

    The hardware encoder is a shift register plus XOR trees, reset for
    every OFDM burst; :meth:`encode` computes such blocks as one GF(2)
    shift-XOR per generator tap, on the same trellis the Viterbi decoder
    walks, over a whole stack of blocks at once.
    """

    def __init__(self, code: Optional[ConvolutionalCode] = None) -> None:
        self.code = code if code is not None else ConvolutionalCode.ieee80211a()

    def encode(self, bits: Sequence[int] | np.ndarray) -> BitArray:
        """Encode one block ``(n,)`` or a stack of equal blocks ``(n_blocks, n)``.

        Every block is independent: the shift register starts all-zero and
        the puncture pattern at its first column; ``constraint_length - 1``
        zero tail bits end the block, so the decoder trellis ends in the
        all-zero state (what the 802.11a tail bits do).  A block's result
        has :meth:`ConvolutionalCode.coded_length` bits, and a stack's has
        one such row per block.
        """
        data = np.asarray(bits, dtype=np.uint8)
        if data.ndim not in (1, 2):
            raise ConfigurationError(
                f"encode takes one block (n,) or a stack (n_blocks, n), got shape {data.shape}"
            )
        _as_bit_array(data)  # only 0s and 1s
        rows = np.atleast_2d(data)
        memory = self.code.memory
        n_steps = rows.shape[1] + memory
        # The all-zero register (oldest bit first), the input, the tail.
        stream = np.zeros((rows.shape[0], n_steps + memory), dtype=np.uint8)
        stream[:, memory : memory + rows.shape[1]] = rows
        # Output g at step t XORs the bits g's taps select: bit
        # ``memory - d`` of g weights the bit entered d steps earlier.
        outputs = []
        for g in self.code.generators:
            out = np.zeros((rows.shape[0], n_steps), dtype=np.uint8)
            for delay in range(memory + 1):
                if (g >> (memory - delay)) & 1:
                    out ^= stream[:, memory - delay : memory - delay + n_steps]
            outputs.append(out)
        # Step-major mother code, each step's outputs in generator order;
        # the puncture pattern repeats every ``period`` of these slots.
        mother = np.stack(outputs, axis=-1).reshape(rows.shape[0], -1)
        period = self.code.puncture_period * self.code.n_outputs
        kept = np.flatnonzero(self.code.puncture_pattern.T)
        slots = (np.arange(-(-mother.shape[1] // period))[:, None] * period + kept).ravel()
        coded = np.take(mother, slots[slots < mother.shape[1]], axis=1)
        return coded[0] if data.ndim == 1 else coded
