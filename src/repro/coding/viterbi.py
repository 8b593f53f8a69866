"""Viterbi decoder (hard and soft decision) with depuncturing.

The paper performs error correction with a Viterbi decoder per receive
channel (Table 4 lists its resource cost), all of them running side by side.
The decoder here decodes the one code the encoder emits, the 802.11a K=7
(133, 171) code of :mod:`repro.coding.convolutional` at any of its
punctured rates, with hard- or soft-decision branch metrics.  Its trellis
tables are that module's, built once per process.

Like the hardware's parallel decoders, :meth:`ViterbiDecoder.decode` takes a
``(n_blocks, n_coded)`` stack and runs every block through one
add-compare-select loop, so the per-step Python cost is paid once per stack
rather than once per stream.  Inside the trellis the block axis is the
innermost, contiguous one: label metrics are ``(n_steps, 4, n_blocks)``,
path metrics ``(2, 32, n_blocks)`` and survivor choices ``(n_steps, 64,
n_blocks)``, so every ufunc walks long unit-stride rows of blocks.  The
trellis of a rate-1/2 feed-forward code is a radix-2 butterfly: the two
predecessors of next state ``ns`` are ``2 * (ns % 32) + {0, 1}`` and its
input bit is the top state bit.  Each step gathers its branch metrics from
that step's per-label metrics, and a tie keeps the lower predecessor.  The
traceback turns the choices, in place, into per-step one-byte predecessor
tables and walks them back: a short stack block by block, one table lookup
per step, and a tall one all blocks together, one gather per step.  The
frozen per-branch reference in ``tests/reference`` checks the result bit
for bit.

Hard decisions stay bits: :meth:`ViterbiDecoder.decode` checks hard input
once into ``uint8``, and the codeword test, the depuncturing and the label
metrics all work on those bits.  Two exact shortcuts cut the hard-decision
trellis work:

* **Codeword fast path** (hard decision, unpunctured rate 1/2).  A block
  whose hard bits already form a codeword of the terminated code skips the
  trellis.  That codeword is at Hamming distance 0 and every other
  terminated path is at distance at least the free distance, 10, so it is
  the unique maximum-likelihood decode and the tie rule never matters.  The
  test inverts the code with its feedforward inverse ``(a0, a1)``, ``a0 g0
  + a1 g1 = 1`` over GF(2)[D] (:data:`_INVERSE_TAPS`): ``a0 y0 + a1 y1``
  recovers the information bits of any codeword, and re-encoding those
  candidate bits with the zero tail reproduces every received bit exactly
  when the block is a codeword.  Only the other blocks run the trellis.
  The punctured rates always run the trellis.
* **Integer hard metrics.**  A hard branch metric is a Hamming distance
  over the kept positions (an erasure adds 0): label bit XOR received bit,
  masked, in exact small integers.  Every path metric is then an exact
  integer of at most ``2 * n_steps``, so the hard trellis runs in
  ``int32`` with an unreachable-state metric of ``2 * n_steps + 1``, above
  every reachable path and far from overflow.  Every comparison between
  reachable candidates is the same integer comparison ``float64`` sums
  would make, and a reachable candidate beats an unreachable one in both
  arithmetics; only the choices at still-unreachable states can differ
  (``1e18 + x`` rounds to a tie in floats, not in integers).  The
  traceback never reads those: it starts from the zero end state, which
  is reachable, and a reachable state's survivor comes from a reachable
  predecessor.  Soft decisions stay ``float64``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.coding.convolutional import (
    GENERATOR_TAPS,
    GENERATORS,
    MEMORY,
    N_STATES,
    OUTPUTS,
    CodeRate,
    ConvolutionalCode,
)
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.bits import BitArray

#: Unreachable-state metric of the soft (``float64``) trellis.
_METRIC_INF = 1e18

#: Most trellis steps whose branch metrics are gathered at once.
_ACS_CHUNK = 64

#: Most block-steps (steps times blocks) one gather covers, so a tall stack
#: gathers fewer steps at a time: the gathered block stays within
#: ``_ACS_BLOCK_STEPS * N_STATES * 2`` floats for any stack height.
_ACS_BLOCK_STEPS = 768


#: Fewest trellis blocks whose traceback walks them all at once, one gather
#: per step, rather than one ``bytes`` walk per block.  A step's gather
#: costs about the same at any stack height, while the ``bytes`` walks grow
#: with it.  On a shared 2-core x86 host the two tie at 12-16 blocks for
#: 54, 262 and 1,206 steps; at 32 blocks of 262 steps (a stream push of
#: eight 4x4 frames) the gather walk takes 0.63 ms against 1.2.
_STEP_WALK_ROWS = 16

#: Mother-code outputs per trellis step.
_N_OUTPUTS = len(GENERATORS)

#: Half the states: the butterfly's width.
_HALF = N_STATES // 2

#: The two values of a label bit, ``[bit, 1]``: the hard metric XORs the
#: received bit with them, and the soft metric signs the LLR by them (bit 0
#: -> +1, bit 1 -> -1).
_BIT_VALUES = np.array([[0], [1]], dtype=np.uint8)
_BIT_SIGNS = np.array([[1.0], [-1.0]])

#: Bits of every output label, MSB (output 0) first: ``(4, 2)``.
_LABEL_BITS = (np.arange(1 << _N_OUTPUTS)[:, None] >> np.arange(_N_OUTPUTS - 1, -1, -1)) & 1

#: Label of the branch from predecessor ``2j + p`` under input bit ``b``,
#: indexed ``[p, b, j]``; that branch lands in next state ``b * 32 + j``.
_BRANCH_LABELS = OUTPUTS[
    2 * np.arange(_HALF)[None, None, :] + np.arange(2)[:, None, None],
    np.arange(2)[None, :, None],
]

#: Tap delays of the feedforward inverse ``(a0, a1)`` of the generators:
#: ``a0 = D**2 + D**4`` and ``a1 = 1 + D + D**2 + D**3 + D**4`` give
#: ``a0 g0 + a1 g1 = 1`` over GF(2)[D] (extended Euclid; a tier-1 test
#: derives it again and checks the identity).
_INVERSE_TAPS = ((2, 4), (0, 1, 2, 3, 4))

#: Predecessor-table base of each state, ``(state & 31) << 1``, as a
#: ``(N_STATES, 1)`` column the choice bits are ORed into.
_PREDECESSOR_BASE = ((np.arange(N_STATES) & (_HALF - 1)) << 1).astype(np.uint8)[:, None]


def _gather_steps(n_blocks: int) -> int:
    """Trellis steps per branch-metric gather for a stack of ``n_blocks``."""
    return max(1, min(_ACS_CHUNK, _ACS_BLOCK_STEPS // max(n_blocks, 1)))


class ViterbiDecoder:
    """Maximum-likelihood sequence decoder for the 802.11a code.

    Parameters
    ----------
    code:
        The code shared with the encoder, which sets the punctured rate
        (defaults to rate 1/2).
    decision:
        ``"hard"`` — the input is coded bits (0/1) and branch metrics are
        Hamming distances; ``"soft"`` — the input is log-likelihood ratios
        (positive LLR means the coded bit is more likely a 0, the convention
        produced by :mod:`repro.modulation.demapper`) and branch metrics are
        correlations.
    """

    def __init__(
        self,
        code: Optional[ConvolutionalCode] = None,
        decision: str = "hard",
    ) -> None:
        if decision not in ("hard", "soft"):
            raise ConfigurationError("decision must be 'hard' or 'soft'")
        self.code = code if code is not None else ConvolutionalCode()
        self.decision = decision
        self._codeword_test = decision == "hard" and self.code.rate is CodeRate.RATE_1_2

    # ------------------------------------------------------------------
    # depuncturing
    # ------------------------------------------------------------------
    def depuncture(
        self, values: np.ndarray, n_input_bits: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Re-insert erasures removed by the puncturer.

        Parameters
        ----------
        values:
            Received coded values (hard bits or LLRs) in transmission order,
            one block ``(n_coded,)`` or a stack ``(n_blocks, n_coded)``.
        n_input_bits:
            Number of trellis steps (information + tail bits) each block
            represents.

        Returns
        -------
        (full_values, erasure_mask):
            ``full_values`` has shape ``(n_input_bits, 2)`` (with a trailing
            ``n_blocks`` axis for a stack), the dtype of ``values`` and
            zeros in erased positions; ``erasure_mask`` is a ``uint8``
            ``(n_input_bits, 2)`` array, 1 where a real received value is
            present and 0 where the puncturer deleted the bit.
        """
        received = np.asarray(values)
        stacked = received.ndim == 2
        stack = received if stacked else received.reshape(1, -1)
        # Tile the puncture pattern across trellis steps; filling the boolean
        # mask in C order (step-major, output-minor) reproduces exactly the
        # transmission order the serial depuncturer consumed values in.
        columns = np.arange(n_input_bits) % self.code.puncture_period
        present = self.code.puncture_pattern[:, columns].T.astype(bool)
        consumed = int(np.count_nonzero(present))
        if stack.shape[1] < consumed:
            raise ConfigurationError(
                "received stream too short for the requested block length"
            )
        if stack.shape[1] > consumed:
            raise ConfigurationError(
                f"received stream has {stack.shape[1]} values but the block "
                f"consumes {consumed}"
            )
        full = np.zeros((n_input_bits, _N_OUTPUTS, stack.shape[0]), dtype=stack.dtype)
        full[present] = stack.T
        return (full if stacked else full[..., 0]), present.view(np.uint8)

    # ------------------------------------------------------------------
    # branch metrics
    # ------------------------------------------------------------------
    def _label_metrics(self, observations: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Metric of every output label at every step, lower is better.

        ``observations`` has shape ``(n_steps, 2, n_blocks)`` (``uint8``
        bits for hard decisions, ``float64`` LLRs for soft ones) and
        ``mask`` ``(n_steps, 2)``; the result is a contiguous ``(n_steps, 4,
        n_blocks)`` array, ``int32`` for hard decisions and ``float64`` for
        soft ones.  A branch's metric is its label's: the sum over outputs,
        in output order, of that output's term for the label's bit.
        """
        if self.decision == "hard":
            # Hamming distance over the kept positions, in exact integers.
            terms = (
                (observations[:, :, None, :] ^ _BIT_VALUES) & mask[:, :, None, None]
            ).astype(np.int32)
        else:
            # Soft decision: LLR convention is positive => bit 0 more likely.
            # Metric = -(sum over outputs of (bit ? -LLR : +LLR)), lower
            # better; an erased position already holds a zero LLR.
            terms = _BIT_SIGNS * observations[:, :, None, :]
        # terms[step, output, bit, block]; gather each output's term per label
        # with ``take``, which (unlike fancy indexing) returns C order.
        metrics = np.take(terms[:, 0], _LABEL_BITS[:, 0], axis=1)
        metrics += np.take(terms[:, 1], _LABEL_BITS[:, 1], axis=1)
        if self.decision == "soft":
            np.negative(metrics, out=metrics)
        return metrics

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(self, received: Sequence[float] | np.ndarray, n_info_bits: int) -> BitArray:
        """Decode one received block, or a stack of blocks, back to information bits.

        Every block is one terminated code block, as
        :meth:`~repro.coding.convolutional.ConvolutionalEncoder.encode`
        emits it: the trellis starts and ends in the all-zero state, and
        the tail steps are stripped from the output.

        Parameters
        ----------
        received:
            Hard bits or LLRs, in the (punctured) order the encoder emitted:
            one block ``(n_coded,)`` or a stack ``(n_blocks, n_coded)`` of
            equally long blocks decoded in one trellis pass.  Hard bits may
            come as any boolean, integer or float array of 0s and 1s.
        n_info_bits:
            Number of information bits to return per block.

        Returns
        -------
        ``(n_info_bits,)`` bits for one block, ``(n_blocks, n_info_bits)``
        for a stack.

        Raises
        ------
        DecodingError
            If ``received`` is not one block or a 2-D stack, holds no
            values, is not real (complex or non-numeric), holds a NaN or
            infinite value, or (hard decision) holds a value other than 0
            or 1.
        ConfigurationError
            If ``n_info_bits`` is not a non-negative integer, or a row's
            length does not match the block ``n_info_bits`` asks for.
        """
        values = self._checked(received)
        if not isinstance(n_info_bits, (int, np.integer)) or n_info_bits < 0:
            raise ConfigurationError(
                f"n_info_bits must be a non-negative integer, got {n_info_bits!r}"
            )
        stacked = values.ndim == 2
        if not stacked:
            values = values.reshape(1, -1)
        if self._codeword_test and values.shape[1] == 2 * (n_info_bits + MEMORY):
            decoded, is_codeword = self._codewords(values, n_info_bits)
            rows = np.flatnonzero(~is_codeword)
            if rows.size:
                decoded[rows] = self._trellis(values[rows], n_info_bits)
        else:
            decoded = self._trellis(values, n_info_bits)
        return decoded if stacked else decoded[0]

    def _checked(self, received: Sequence[float] | np.ndarray) -> np.ndarray:
        """``received`` checked once: ``uint8`` bits for hard decisions,
        ``float64`` LLRs for soft ones (see :meth:`decode` for what raises)."""
        raw = np.asarray(received)
        if raw.dtype.kind not in "biuf":
            raise DecodingError(f"received values must be real numbers, got {raw.dtype} input")
        if raw.ndim not in (1, 2):
            raise DecodingError(
                f"received must be one block or a 2-D stack, got {raw.ndim} dimensions"
            )
        if raw.size == 0:
            raise DecodingError("received holds no coded values")
        if self.decision == "soft":
            values = np.asarray(raw, dtype=np.float64)
            if not np.isfinite(values).all():
                raise DecodingError("received values must be finite")
            return values
        if raw.dtype.kind != "b" and not ((raw == 0) | (raw == 1)).all():
            if not np.isfinite(raw).all():
                raise DecodingError("received values must be finite")
            raise DecodingError("hard-decision input must be bits (0 or 1)")
        return np.asarray(raw, dtype=np.uint8)

    def _trellis(self, values: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Decode a ``(n_blocks, n_coded)`` stack through the trellis."""
        observations, mask = self.depuncture(values, n_info_bits + MEMORY)
        choices = self._acs(self._label_metrics(observations, mask))
        return self._traceback(choices)[:, :n_info_bits]

    def _codewords(self, bits: np.ndarray, n_info_bits: int) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate information bits of a rate-1/2 hard stack, and which rows are codewords.

        The candidate is the first ``n_info_bits`` coefficients of ``a0 y0 +
        a1 y1``; a row is a codeword exactly when re-encoding its candidate
        with the zero tail gives back every received bit, and then the
        candidate is its decode.
        """
        n_steps = n_info_bits + MEMORY
        # Received bits as (output, block, step) rows.
        received = np.ascontiguousarray(np.moveaxis(bits.reshape(len(bits), n_steps, 2), 2, 0))
        info = np.zeros((len(bits), n_info_bits), dtype=np.uint8)
        for stream, taps in zip(received, _INVERSE_TAPS):
            for delay in taps:
                if delay < n_info_bits:
                    info[:, delay:] ^= stream[:, : n_info_bits - delay]
        coded = np.zeros_like(received)
        for output, taps in zip(coded, GENERATOR_TAPS):
            for delay in taps:
                output[:, delay : delay + n_info_bits] ^= info
        return info, (coded == received).all(axis=(0, 2))

    # ------------------------------------------------------------------
    # add-compare-select and traceback
    # ------------------------------------------------------------------
    def _acs(self, label_metrics: np.ndarray) -> np.ndarray:
        """Butterfly add-compare-select over every block at once.

        Returns the ``(n_steps, 64, n_blocks)`` choice bits: ``True`` where the
        survivor into a state came from the odd predecessor ``2j + 1``.
        Candidates are the same ``metric + branch`` sums a per-branch
        decoder forms, and ``c1 < c0`` keeps the even predecessor on a tie.
        Path metrics take the label metrics' dtype; an integer trellis
        starts its unreachable states one above the largest possible
        Hamming distance of a block.
        """
        n_steps, _, n_blocks = label_metrics.shape
        dtype = label_metrics.dtype
        unreachable = _METRIC_INF if dtype.kind == "f" else _N_OUTPUTS * n_steps + 1
        # Metrics of next state b * half + j live at [b, j]; the same buffer
        # seen as [p, 1, j] is the metric of predecessor 2j + p.
        metrics = np.full((2, _HALF, n_blocks), unreachable, dtype=dtype)
        metrics[0, 0] = 0
        predecessors = metrics.reshape(_HALF, 2, n_blocks).transpose(1, 0, 2)[:, None]
        candidate = np.empty((2, 2, _HALF, n_blocks), dtype=dtype)  # [p, b, j, block]
        even, odd = candidate[0], candidate[1]
        choices = np.empty((n_steps, 2, _HALF, n_blocks), dtype=bool)
        steps = _gather_steps(n_blocks)
        for start in range(0, n_steps, steps):
            # Branch metrics of a bounded chunk of steps, [step, p, b, j, block].
            chunk = label_metrics[start : start + steps]
            branches = np.take(chunk, _BRANCH_LABELS, axis=1)
            for branch, choice in zip(branches, choices[start : start + steps]):
                np.add(predecessors, branch, out=candidate)
                np.less(odd, even, out=choice)
                np.minimum(even, odd, out=metrics)
        return choices.reshape(n_steps, N_STATES, n_blocks)

    def _traceback(self, choices: np.ndarray) -> np.ndarray:
        """Walk every block's survivor path back from the all-zero end state.

        The choice bits become per-step one-byte predecessor tables,
        ``table[step, state] = ((state & 31) << 1) | choice``, written over
        the choices' own bytes.  A stack of fewer than
        :data:`_STEP_WALK_ROWS` blocks walks each block's column of tables
        as one ``bytes`` string, one lookup per step; a taller stack walks
        all blocks together, one gather per step.
        """
        table = choices.view(np.uint8)
        table |= _PREDECESSOR_BASE
        walk = _walk_steps if table.shape[2] >= _STEP_WALK_ROWS else _walk_blocks
        # The input bit that entered a state is its top bit.
        return (walk(table) >> (MEMORY - 1)).astype(np.uint8)


def _walk_blocks(table: np.ndarray) -> np.ndarray:
    """``(n_blocks, n_steps)`` survivor states, one ``bytes`` walk per block."""
    n_steps, n_states, n_blocks = table.shape
    offsets = range((n_steps - 1) * n_states, -1, -n_states)
    states = np.empty((n_blocks, n_steps), dtype=np.int64)
    for block in range(n_blocks):
        state = 0
        path = table[:, :, block].tobytes()
        visited = []
        for offset in offsets:
            visited.append(state)
            state = path[offset + state]
        states[block, ::-1] = visited
    return states


def _walk_steps(table: np.ndarray) -> np.ndarray:
    """``(n_blocks, n_steps)`` survivor states, every block walked together.

    Each step gathers every block's predecessor from that step's table in
    one ``take``.
    """
    n_steps, n_states, n_blocks = table.shape
    # rows[step, block * n_states + state]
    rows = table.transpose(0, 2, 1).reshape(n_steps, n_blocks * n_states)
    columns = np.arange(n_blocks) * n_states
    states = np.empty((n_steps, n_blocks), dtype=table.dtype)
    state = np.zeros(n_blocks, dtype=table.dtype)
    for step in range(n_steps - 1, -1, -1):
        states[step] = state
        state = rows[step].take(columns + state)
    return states.T
