"""Property test: the stacked Viterbi decoder against the per-branch oracle.

:meth:`ViterbiDecoder.decode` runs a whole ``(n_blocks, n_coded)`` stack
through one block-minor trellis pass and one table traceback.  Every row
must decode exactly as ``tests/reference/coding.py::viterbi_decode_serial``
decodes it alone, whatever the stack height (across ``DECODE_SLICE``), the
block length (across several branch-metric gathers, which cover fewer
steps the taller the stack), the decision mode, the code rate,
termination, ties forced by zero LLRs, and the constraint length: K = 10
has 512 states and takes the ``uint16`` predecessor table.

The serial oracle costs a Python loop over every state per step, so a stack
is built from a small pool of distinct rows placed at random positions, and
the oracle runs once per pool row.  Longer blocks are drawn only for the
smaller codes.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.coding.convolutional import (
    PUNCTURE_PATTERNS,
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
)
from repro.coding.viterbi import ViterbiDecoder, _gather_steps
from repro.core.receiver import DECODE_SLICE
from reference.coding import viterbi_decode_serial

#: (constraint length, generators, most information bits per block).
CODES = [
    (3, (0o5, 0o7), 90),
    (7, (0o133, 0o171), 90),
    (8, (0o247, 0o371), 24),
    (9, (0o561, 0o753), 16),
    (10, (0o1167, 0o1545), 10),
]
MAX_BLOCKS = 130

assert MAX_BLOCKS > DECODE_SLICE and CODES[0][2] > _gather_steps(1)


def _received_row(code, decision, n_bits, terminated, zero_fraction, rng):
    info = rng.integers(0, 2, n_bits).astype(np.uint8)
    coded = ConvolutionalEncoder(code).encode(info, terminate=terminated).astype(np.float64)
    if decision == "hard":
        flips = rng.random(coded.size) < rng.uniform(0.0, 0.15)
        return np.where(flips, 1.0 - coded, coded)
    llrs = (1.0 - 2.0 * coded) + rng.normal(0.0, rng.uniform(0.3, 1.2), coded.size)
    # Zero LLRs carry no information, so equal path metrics (ties) follow.
    llrs[rng.random(coded.size) < zero_fraction] = 0.0
    return llrs


_EXAMPLE = dict(
    rate=CodeRate.RATE_3_4, decision="soft", terminated=False, n_blocks=MAX_BLOCKS,
    pool_size=4, bits_fraction=1.0, zero_fraction=0.3, seed=7,
)


@settings(deadline=None, max_examples=50)
@example(code_index=1, **_EXAMPLE)  # the longest K = 7 blocks, the tallest stack
@example(code_index=len(CODES) - 1, **_EXAMPLE)  # 512 states: the uint16 table
@given(
    code_index=st.integers(0, len(CODES) - 1),
    rate=st.sampled_from(list(CodeRate)),
    decision=st.sampled_from(["hard", "soft"]),
    terminated=st.booleans(),
    n_blocks=st.integers(1, MAX_BLOCKS),
    pool_size=st.integers(1, 4),
    bits_fraction=st.floats(0.0, 1.0),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_decodes_like_the_serial_oracle(
    code_index, rate, decision, terminated, n_blocks, pool_size, bits_fraction, zero_fraction, seed
):
    constraint_length, generators, max_bits = CODES[code_index]
    code = ConvolutionalCode(constraint_length, generators, PUNCTURE_PATTERNS[rate])
    # Terminated blocks of zero information bits still run the tail steps.
    n_bits = int(round(bits_fraction * max_bits))
    rng = np.random.default_rng(seed)
    pool = [
        _received_row(code, decision, n_bits, terminated, zero_fraction, rng)
        for _ in range(pool_size)
    ]
    rows = rng.integers(0, pool_size, n_blocks)
    stack = np.array([pool[row] for row in rows])

    decoder = ViterbiDecoder(code, decision=decision)
    decoded = decoder.decode(stack, n_info_bits=n_bits, terminated=terminated)

    assert decoded.shape == (n_blocks, n_bits) and decoded.dtype == np.uint8
    expected = [
        viterbi_decode_serial(code, decision, row, n_bits, terminated) for row in pool
    ]
    for bits, row in zip(decoded, rows):
        np.testing.assert_array_equal(bits, expected[row])
    np.testing.assert_array_equal(
        decoder.decode(pool[0], n_info_bits=n_bits, terminated=terminated), expected[0]
    )
