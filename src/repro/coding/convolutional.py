"""The 802.11a convolutional code and its encoder, with puncturing.

The paper's transmitter streams uncoded data into a "generic convolutional
encoder" whose data-path width, code rate ``R`` and puncture pattern are
synthesis-time parameters.  The evaluated code is the 802.11a
industry-standard one: constraint length 7, generator polynomials 133/171
(octal), mother rate 1/2, punctured to 2/3 or 3/4.  So the mother code is
fixed here (:data:`CONSTRAINT_LENGTH`, :data:`GENERATORS`, and the trellis
tables :data:`NEXT_STATES`/:data:`OUTPUTS`, built once at import) and the
rate is the one parameter.

:class:`ConvolutionalCode` is that code at one :class:`CodeRate`: its
puncture pattern and the coded length of a block;
:class:`ConvolutionalEncoder` encodes terminated blocks, one per burst
stream as the hardware does, a whole stack of them per call.  The
matching decoder lives in :mod:`repro.coding.viterbi`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: Constraint length of the mother code: the current bit and six delay
#: elements.
CONSTRAINT_LENGTH = 7

#: Shift-register delay elements, and the tail bits that end a block.
MEMORY = CONSTRAINT_LENGTH - 1

#: Trellis states.
N_STATES = 1 << MEMORY

#: Generator polynomials (octal), most-significant tap on the current
#: input bit.
GENERATORS = (0o133, 0o171)

#: Tap delays of each generator: bit ``MEMORY - d`` of a generator weights
#: the bit entered ``d`` steps earlier.
GENERATOR_TAPS = tuple(
    tuple(delay for delay in range(CONSTRAINT_LENGTH) if g >> (MEMORY - delay) & 1)
    for g in GENERATORS
)

#: 802.11a puncture patterns, expressed over the mother-code output pairs
#: (A, B) per input bit.  A ``1`` keeps the coded bit, ``0`` deletes it.
PUNCTURE_PATTERNS = {
    CodeRate.RATE_1_2: _read_only(np.array([[1], [1]], dtype=np.uint8)),
    CodeRate.RATE_2_3: _read_only(np.array([[1, 1], [1, 0]], dtype=np.uint8)),
    CodeRate.RATE_3_4: _read_only(np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)),
}


def _build_trellis() -> Tuple[np.ndarray, np.ndarray]:
    """``(next_states, outputs)`` tables of the mother code.

    ``state`` holds the most recent input bit in its MSB, matching the
    hardware shift register.  ``next_states[state, bit]`` is the successor
    state when ``bit`` is shifted in, and ``outputs[state, bit]`` packs the
    mother-code output bits MSB-first (output 0 in the MSB), each the
    parity of the register's tapped bits.
    """
    states = np.arange(N_STATES, dtype=np.int64)[:, None]
    bits = np.arange(2, dtype=np.int64)[None, :]
    registers = (bits << MEMORY) | states
    outputs = np.zeros_like(registers)
    for g in GENERATORS:
        taps = registers & g
        parity = np.zeros_like(taps)
        for shift in range(CONSTRAINT_LENGTH):
            parity ^= taps >> shift
        outputs = (outputs << 1) | (parity & 1)
    return _read_only(registers >> 1), _read_only(outputs)


#: Trellis tables of the mother code, ``(N_STATES, 2)`` each (see
#: :func:`_build_trellis`); every encoder and decoder shares them.
NEXT_STATES, OUTPUTS = _build_trellis()


@dataclass(frozen=True)
class ConvolutionalCode:
    """The 802.11a K=7 (133, 171) mother code punctured to ``rate``.

    Parameters
    ----------
    rate:
        Effective code rate; its puncture pattern is
        ``PUNCTURE_PATTERNS[rate]``.  A rate string such as ``"3/4"`` is
        accepted and stored as its :class:`CodeRate` member.
    """

    rate: CodeRate = CodeRate.RATE_1_2

    #: Tail bits of a block (:data:`MEMORY`), the same for every rate.
    memory = MEMORY

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", CodeRate(self.rate))

    @property
    def puncture_pattern(self) -> np.ndarray:
        """``(2, period)`` 0/1 flags of the coded bits kept (read-only)."""
        return PUNCTURE_PATTERNS[self.rate]

    @property
    def puncture_period(self) -> int:
        """Number of input bits covered by one puncture-pattern period."""
        return self.puncture_pattern.shape[1]

    def coded_length(self, n_info_bits: int) -> int:
        """Coded bits of one terminated block of ``n_info_bits`` information bits."""
        total_in = n_info_bits + MEMORY
        per_period = int(self.puncture_pattern.sum())
        full, rem = divmod(total_in, self.puncture_period)
        return full * per_period + int(self.puncture_pattern[:, :rem].sum())


class ConvolutionalEncoder:
    """Convolutional encoder with puncturing and tailing.

    The hardware encoder is a shift register plus XOR trees, reset for
    every OFDM burst; :meth:`encode` computes such blocks as one GF(2)
    shift-XOR per generator tap, on the same trellis the Viterbi decoder
    walks, over a whole stack of blocks at once.
    """

    def __init__(self, code: Optional[ConvolutionalCode] = None) -> None:
        self.code = code if code is not None else ConvolutionalCode()

    def encode(self, bits: np.ndarray) -> BitArray:
        """Encode a stack of equal blocks ``(n_blocks, n)``.

        Every block is independent: the shift register starts all-zero and
        the puncture pattern at its first column; :data:`MEMORY` zero tail
        bits end the block, so the decoder trellis ends in the all-zero
        state (what the 802.11a tail bits do).  The result has one row of
        :meth:`ConvolutionalCode.coded_length` bits per block; any other
        rank raises :class:`~repro.exceptions.ConfigurationError`.
        """
        rows = np.asarray(bits, dtype=np.uint8)
        if rows.ndim != 2:
            raise ConfigurationError(
                f"encode takes a stack (n_blocks, n), got shape {rows.shape}"
            )
        _as_bit_array(rows)  # only 0s and 1s
        n_steps = rows.shape[1] + MEMORY
        # The all-zero register (oldest bit first), the input, the tail.
        stream = np.zeros((rows.shape[0], n_steps + MEMORY), dtype=np.uint8)
        stream[:, MEMORY : MEMORY + rows.shape[1]] = rows
        # Output g at step t XORs the bits entered at g's tap delays.
        outputs = []
        for taps in GENERATOR_TAPS:
            out = np.zeros((rows.shape[0], n_steps), dtype=np.uint8)
            for delay in taps:
                out ^= stream[:, MEMORY - delay : MEMORY - delay + n_steps]
            outputs.append(out)
        # Step-major mother code, each step's outputs in generator order;
        # the puncture pattern repeats every ``period`` of these slots.
        mother = np.stack(outputs, axis=-1).reshape(rows.shape[0], -1)
        period = self.code.puncture_pattern.size
        kept = np.flatnonzero(self.code.puncture_pattern.T)
        slots = (np.arange(-(-mother.shape[1] // period))[:, None] * period + kept).ravel()
        return np.take(mother, slots[slots < mother.shape[1]], axis=1)
