"""Viterbi decoder (hard and soft decision) with depuncturing.

The paper performs error correction with a Viterbi decoder per receive
channel (Table 4 lists its resource cost), all of them running side by side.
The decoder here supports the same generic
:class:`~repro.coding.convolutional.ConvolutionalCode` the encoder uses,
hard- or soft-decision branch metrics, and depuncturing of the 802.11a
punctured rates.

Like the hardware's parallel decoders, :meth:`ViterbiDecoder.decode` takes a
``(n_blocks, n_coded)`` stack and runs every block through one
add-compare-select loop, so the per-step Python cost is paid once per stack
rather than once per stream.  Inside the trellis the block axis is the
innermost, contiguous one: label metrics are ``(n_steps, 2 ** n_outputs,
n_blocks)``, path metrics ``(2, n_states // 2, n_blocks)`` and survivor
choices ``(n_steps, n_states, n_blocks)``, so every ufunc walks long
unit-stride rows of blocks.  The trellis of a rate-1/n feed-forward code is
a radix-2 butterfly: the two predecessors of next state ``ns`` are
``2 * (ns % (n_states // 2)) + {0, 1}`` and its input bit is the top state
bit.  Each step gathers its branch metrics from that step's per-label
metrics, and a tie keeps the lower predecessor.  The traceback turns the
choices, in place, into per-step predecessor tables and walks each block
back with one table lookup per step.  The frozen per-branch reference in
``tests/reference`` checks the result bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.coding.convolutional import ConvolutionalCode
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.bits import BitArray

_METRIC_INF = 1e18

#: Most trellis steps whose branch metrics are gathered at once.
_ACS_CHUNK = 64

#: Most block-steps (steps times blocks) one gather covers, so a tall stack
#: gathers fewer steps at a time: the gathered block stays within
#: ``_ACS_BLOCK_STEPS * n_states * 2`` floats for any stack height.
_ACS_BLOCK_STEPS = 768


def _gather_steps(n_blocks: int) -> int:
    """Trellis steps per branch-metric gather for a stack of ``n_blocks``."""
    return max(1, min(_ACS_CHUNK, _ACS_BLOCK_STEPS // max(n_blocks, 1)))


class ViterbiDecoder:
    """Maximum-likelihood sequence decoder for convolutional codes.

    Parameters
    ----------
    code:
        Code definition shared with the encoder (defaults to 802.11a K=7).
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
        self.code = code if code is not None else ConvolutionalCode.ieee80211a()
        self.decision = decision
        n = self.code.n_outputs
        # Bits of every output label, MSB (output 0) first: (2**n, n).
        shifts = np.arange(n - 1, -1, -1)
        self._label_bits = (np.arange(1 << n)[:, None] >> shifts) & 1
        # Label of the branch from predecessor 2j + p under input bit b,
        # indexed [p, b, j]; that branch lands in next state b * half + j.
        _, outputs = self.code.build_trellis()
        half = self.code.n_states // 2
        p = np.arange(2)[:, None, None]
        b = np.arange(2)[None, :, None]
        j = np.arange(half)[None, None, :]
        self._branch_labels = outputs[2 * j + p, b]

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
            ``full_values`` has shape ``(n_input_bits, n_outputs)`` (with a
            trailing ``n_blocks`` axis for a stack) and zeros in erased
            positions; ``erasure_mask`` has shape ``(n_input_bits,
            n_outputs)`` and is 1 where a real received value is present and
            0 where the puncturer deleted the bit.
        """
        received = np.asarray(values, dtype=np.float64)
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
        full = np.zeros((n_input_bits, self.code.n_outputs, stack.shape[0]), dtype=np.float64)
        full[present] = stack.T
        return (full if stacked else full[..., 0]), present.astype(np.float64)

    # ------------------------------------------------------------------
    # branch metrics
    # ------------------------------------------------------------------
    def _label_metrics(self, observations: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Metric of every output label at every step, lower is better.

        ``observations`` has shape ``(n_steps, n_outputs, n_blocks)`` and
        ``mask`` ``(n_steps, n_outputs)``; the result is a contiguous
        ``(n_steps, 2 ** n_outputs, n_blocks)`` array.  A branch's metric is
        its label's: the sum over outputs, in output order, of that output's
        term for the label's bit.
        """
        erasures = mask[:, :, None, None]
        bit_values = np.array([[0.0], [1.0]])
        if self.decision == "hard":
            # Hamming distance over non-erased positions.
            terms = np.abs(bit_values - observations[:, :, None, :]) * erasures
        else:
            # Soft decision: LLR convention is positive => bit 0 more likely.
            # Metric = -(sum over outputs of (bit ? -LLR : +LLR)), lower better.
            signs = 1.0 - 2.0 * bit_values  # bit0 -> +1, bit1 -> -1
            terms = signs * (observations[:, :, None, :] * erasures)
        # terms[step, output, bit, block]; gather each output's term per label
        # with ``take``, which (unlike fancy indexing) returns C order.
        metrics = np.take(terms[:, 0], self._label_bits[:, 0], axis=1)
        for output in range(1, self.code.n_outputs):
            metrics += np.take(terms[:, output], self._label_bits[:, output], axis=1)
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
            equally long blocks decoded in one trellis pass.
        n_info_bits:
            Number of information bits to return per block.

        Returns
        -------
        ``(n_info_bits,)`` bits for one block, ``(n_blocks, n_info_bits)``
        for a stack.

        Raises
        ------
        DecodingError
            If ``received`` has more than two dimensions or holds a NaN or
            infinite value.
        ConfigurationError
            If ``n_info_bits`` is negative, or a row's length does not match
            the block ``n_info_bits`` asks for.
        """
        values = np.asarray(received, dtype=np.float64)
        if values.ndim > 2:
            raise DecodingError(
                f"received must be one block or a 2-D stack, got {values.ndim} dimensions"
            )
        if not np.isfinite(values).all():
            raise DecodingError("received values must be finite")
        if n_info_bits < 0:
            raise ConfigurationError("n_info_bits must be non-negative")
        stacked = values.ndim == 2
        if not stacked:
            values = values.reshape(1, -1)
        observations, mask = self.depuncture(values, n_info_bits + self.code.memory)
        choices = self._acs(self._label_metrics(observations, mask))
        decoded = self._traceback(choices)[:, :n_info_bits]
        return decoded if stacked else decoded[0]

    # ------------------------------------------------------------------
    # add-compare-select and traceback
    # ------------------------------------------------------------------
    def _acs(self, label_metrics: np.ndarray) -> np.ndarray:
        """Butterfly add-compare-select over every block at once.

        Returns the ``(n_steps, n_states, n_blocks)`` choice bits: ``True`` where the
        survivor into a state came from the odd predecessor ``2j + 1``.
        Candidates are the same ``metric + branch`` sums a per-branch
        decoder forms, and ``c1 < c0`` keeps the even predecessor on a tie.
        """
        n_steps, _, n_blocks = label_metrics.shape
        n_states = self.code.n_states
        half = n_states // 2
        # Metrics of next state b * half + j live at [b, j]; the same buffer
        # seen as [p, 1, j] is the metric of predecessor 2j + p.
        metrics = np.full((2, half, n_blocks), _METRIC_INF)
        metrics[0, 0] = 0.0
        predecessors = metrics.reshape(half, 2, n_blocks).transpose(1, 0, 2)[:, None]
        candidate = np.empty((2, 2, half, n_blocks))  # [p, b, j, block]
        even, odd = candidate[0], candidate[1]
        choices = np.empty((n_steps, 2, half, n_blocks), dtype=bool)
        steps = _gather_steps(n_blocks)
        for start in range(0, n_steps, steps):
            # Branch metrics of a bounded chunk of steps, [step, p, b, j, block].
            chunk = label_metrics[start : start + steps]
            branches = np.take(chunk, self._branch_labels, axis=1)
            for branch, choice in zip(branches, choices[start : start + steps]):
                np.add(predecessors, branch, out=candidate)
                np.less(odd, even, out=choice)
                np.minimum(even, odd, out=metrics)
        return choices.reshape(n_steps, n_states, n_blocks)

    def _traceback(self, choices: np.ndarray) -> np.ndarray:
        """Walk every block's survivor path back from the all-zero end state.

        The choice bits become per-step predecessor tables, ``table[step,
        state] = ((state & (half - 1)) << 1) | choice``, written over the
        choices' own bytes (codes over 256 states need a ``uint16`` table,
        and so a copy).  Each block's column of tables is then one
        ``bytes`` string, and every step of its walk is one lookup.
        """
        n_steps, n_states, n_blocks = choices.shape
        low = np.arange(n_states) & (n_states // 2 - 1)
        if n_states <= 256:
            table = choices.view(np.uint8)
        else:
            table = choices.astype(np.uint16)
        table |= (low << 1).astype(table.dtype)[:, None]
        offsets = range((n_steps - 1) * n_states, -1, -n_states)
        states = np.empty((n_blocks, n_steps), dtype=np.int64)
        for block in range(n_blocks):
            state = 0
            path = table[:, :, block].tobytes()
            if table.itemsize > 1:
                path = memoryview(path).cast(table.dtype.char)
            visited = []
            for offset in offsets:
                visited.append(state)
                state = path[offset + state]
            states[block, ::-1] = visited
        # The input bit that entered a state is its top bit.
        return (states >> (self.code.memory - 1)).astype(np.uint8)
