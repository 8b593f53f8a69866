"""Property test: the stacked Viterbi decoder against the per-branch oracle.

:meth:`ViterbiDecoder.decode` runs a whole ``(n_blocks, n_coded)`` stack
through one block-minor trellis pass and one table traceback, which walks
a short stack block by block and a tall one all blocks at once.  Every row
must decode exactly as ``tests/reference/coding.py::viterbi_decode_serial``
decodes it alone, whatever the stack height (across ``DECODE_SLICE``), the
block length (across several branch-metric gathers, which cover fewer
steps the taller the stack, down to the empty block whose trellis is the
tail alone), the decision mode, the code rate, ties forced by zero LLRs,
and the constraint length: K = 10
has 512 states and takes the ``uint16`` predecessor table.  A stream
push's stack, above the walk crossover, is pinned at hard and soft
decisions and rates 1/2 and 3/4.

The serial oracle costs a Python loop over every state per step, so a stack
is built from a small pool of distinct rows placed at random positions, and
the oracle runs once per pool row.  Longer blocks are drawn only for the
smaller codes.

Hard rate-1/2 blocks that already form a codeword skip the trellis, so a
second property mixes codewords with blocks one flip away from one (the
flip also in the tail) and checks both the codeword test and the decode.
The codeword test and the integer hard trellis are also pinned directly:
an all-codeword stack never reaches add-compare-select, a catastrophic
code (no feedforward inverse) and the punctured hard rates run the
``int32`` trellis, and the inverse is computed once per code.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coding.convolutional import (
    PUNCTURE_PATTERNS,
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
)
import repro.coding.viterbi as viterbi_module
from repro.coding.viterbi import ViterbiDecoder, _feedforward_inverse, _gather_steps
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


def _received_row(code, decision, n_bits, zero_fraction, rng):
    info = rng.integers(0, 2, n_bits).astype(np.uint8)
    coded = ConvolutionalEncoder(code).encode(info).astype(np.float64)
    if decision == "hard":
        flips = rng.random(coded.size) < rng.uniform(0.0, 0.15)
        return np.where(flips, 1.0 - coded, coded)
    llrs = (1.0 - 2.0 * coded) + rng.normal(0.0, rng.uniform(0.3, 1.2), coded.size)
    # Zero LLRs carry no information, so equal path metrics (ties) follow.
    llrs[rng.random(coded.size) < zero_fraction] = 0.0
    return llrs


_EXAMPLE = dict(
    rate=CodeRate.RATE_3_4, decision="soft", n_blocks=MAX_BLOCKS,
    pool_size=4, bits_fraction=1.0, zero_fraction=0.3, seed=7,
)


@settings(deadline=None, max_examples=50)
@example(code_index=1, **_EXAMPLE)  # the longest K = 7 blocks, the tallest stack
@example(code_index=len(CODES) - 1, **_EXAMPLE)  # 512 states: the uint16 table
@given(
    code_index=st.integers(0, len(CODES) - 1),
    rate=st.sampled_from(list(CodeRate)),
    decision=st.sampled_from(["hard", "soft"]),
    n_blocks=st.integers(1, MAX_BLOCKS),
    pool_size=st.integers(1, 4),
    bits_fraction=st.floats(0.0, 1.0),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_decodes_like_the_serial_oracle(
    code_index, rate, decision, n_blocks, pool_size, bits_fraction, zero_fraction, seed
):
    constraint_length, generators, max_bits = CODES[code_index]
    code = ConvolutionalCode(constraint_length, generators, PUNCTURE_PATTERNS[rate])
    # Blocks of zero information bits still run the tail steps.
    n_bits = int(round(bits_fraction * max_bits))
    rng = np.random.default_rng(seed)
    pool = [
        _received_row(code, decision, n_bits, zero_fraction, rng)
        for _ in range(pool_size)
    ]
    rows = rng.integers(0, pool_size, n_blocks)
    stack = np.array([pool[row] for row in rows])

    decoder = ViterbiDecoder(code, decision=decision)
    decoded = decoder.decode(stack, n_info_bits=n_bits)

    assert decoded.shape == (n_blocks, n_bits) and decoded.dtype == np.uint8
    expected = [viterbi_decode_serial(code, decision, row, n_bits) for row in pool]
    for bits, row in zip(decoded, rows):
        np.testing.assert_array_equal(bits, expected[row])
    np.testing.assert_array_equal(decoder.decode(pool[0], n_info_bits=n_bits), expected[0])


#: Row kinds of the fast-path property: a codeword, and one coded bit
#: flipped anywhere or inside the tail steps.
ROW_KINDS = ("codeword", "flip", "tail flip")


def _near_codeword_row(code, n_bits, kind, rng):
    info = rng.integers(0, 2, n_bits).astype(np.uint8)
    coded = ConvolutionalEncoder(code).encode(info).astype(np.float64)
    if kind != "codeword":
        first = coded.size - code.n_outputs * code.memory if kind == "tail flip" else 0
        position = rng.integers(first, coded.size)
        coded[position] = 1.0 - coded[position]
    return coded


@settings(deadline=None, max_examples=40)
@example(code_index=1, n_blocks=MAX_BLOCKS, bits_fraction=1.0, kinds=list(ROW_KINDS), seed=3)
@example(code_index=1, n_blocks=3, bits_fraction=0.0, kinds=["codeword", "tail flip"], seed=4)
@example(code_index=0, n_blocks=DECODE_SLICE + 1, bits_fraction=0.5, kinds=["codeword"], seed=5)
@given(
    code_index=st.integers(0, 1),
    n_blocks=st.integers(1, MAX_BLOCKS),
    bits_fraction=st.floats(0.0, 1.0),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_codeword_fast_path_decodes_like_the_serial_oracle(
    code_index, n_blocks, bits_fraction, kinds, seed
):
    constraint_length, generators, max_bits = CODES[code_index]
    code = ConvolutionalCode(constraint_length, generators)
    n_bits = int(round(bits_fraction * max_bits))
    rng = np.random.default_rng(seed)
    pool = [_near_codeword_row(code, n_bits, kind, rng) for kind in kinds]
    rows = rng.integers(0, len(pool), n_blocks)
    stack = np.array([pool[row] for row in rows])

    decoder = ViterbiDecoder(code)
    _, is_codeword = decoder._codewords(stack, n_bits)
    # One flip from a codeword is never a codeword: distinct codewords
    # differ in at least the free distance.
    np.testing.assert_array_equal(is_codeword, [kinds[row] == "codeword" for row in rows])
    decoded = decoder.decode(stack, n_info_bits=n_bits)
    assert decoded.shape == (n_blocks, n_bits) and decoded.dtype == np.uint8
    expected = [viterbi_decode_serial(code, "hard", row, n_bits) for row in pool]
    for bits, row in zip(decoded, rows):
        np.testing.assert_array_equal(bits, expected[row])


def _count_acs_calls(decoder, monkeypatch):
    calls = []
    acs = decoder._acs

    def counting_acs(label_metrics):
        calls.append(label_metrics.dtype)
        return acs(label_metrics)

    monkeypatch.setattr(decoder, "_acs", counting_acs)
    return calls


def test_an_all_codeword_stack_skips_the_trellis(monkeypatch):
    code = ConvolutionalCode.ieee80211a()
    rng = np.random.default_rng(11)
    info = rng.integers(0, 2, (DECODE_SLICE + 3, 60)).astype(np.uint8)
    stack = np.array([ConvolutionalEncoder(code).encode(row) for row in info])
    decoder = ViterbiDecoder(code)
    calls = _count_acs_calls(decoder, monkeypatch)
    np.testing.assert_array_equal(decoder.decode(stack, n_info_bits=60), info)
    np.testing.assert_array_equal(decoder.decode(stack[0], n_info_bits=60), info[0])
    # The empty block's only codeword is its all-zero tail.
    assert decoder.decode(np.zeros((2, 12)), n_info_bits=0).shape == (2, 0)
    assert calls == []
    # A block one flip away runs the integer trellis, on its own.
    stack[5, 7] ^= 1
    np.testing.assert_array_equal(decoder.decode(stack, n_info_bits=60), info)
    assert calls == [np.dtype(np.int32)]


@pytest.mark.parametrize(
    "code",
    [
        # K=3 (6, 5): 1 + D and 1 + D**2 share the factor 1 + D.
        ConvolutionalCode(constraint_length=3, generators=(0o6, 0o5)),
        ConvolutionalCode.ieee80211a(CodeRate.RATE_2_3),
        ConvolutionalCode.ieee80211a(CodeRate.RATE_3_4),
    ],
    ids=["catastrophic-k3", "rate-2/3", "rate-3/4"],
)
def test_codes_without_the_fast_path_run_the_integer_trellis(code, monkeypatch):
    rng = np.random.default_rng(12)
    n_bits = 36
    pool = [_received_row(code, "hard", n_bits, 0.0, rng) for _ in range(3)]
    # Codewords too: without a fast path they also run the trellis.
    pool.append(ConvolutionalEncoder(code).encode(np.ones(n_bits, dtype=np.uint8)).astype(float))
    stack = np.array(pool)
    decoder = ViterbiDecoder(code)
    calls = _count_acs_calls(decoder, monkeypatch)
    decoded = decoder.decode(stack, n_info_bits=n_bits)
    assert calls == [np.dtype(np.int32)]
    for bits, row in zip(decoded, pool):
        np.testing.assert_array_equal(bits, viterbi_decode_serial(code, "hard", row, n_bits))


@pytest.mark.parametrize("decision", ["hard", "soft"])
@pytest.mark.parametrize(
    "rate", [CodeRate.RATE_1_2, CodeRate.RATE_3_4], ids=["rate-1/2", "rate-3/4"]
)
def test_a_stack_above_the_walk_crossover_decodes_like_the_serial_oracle(
    decision, rate, monkeypatch
):
    # A stream push of eight 4x4 frames: 32 blocks of 256 bits, above the
    # height from which the traceback walks every block at once.
    code = ConvolutionalCode.ieee80211a(rate)
    n_bits, n_blocks = 256, 2 * viterbi_module._STEP_WALK_ROWS
    rng = np.random.default_rng(21)
    # Noisy rows: no hard rate-1/2 row is a codeword, so all run the trellis.
    pool = [_received_row(code, decision, n_bits, 0.1, rng) for _ in range(3)]
    rows = rng.integers(0, len(pool), n_blocks)
    heights = []
    walk_steps = viterbi_module._walk_steps

    def recording(table):
        heights.append(table.shape[2])
        return walk_steps(table)

    monkeypatch.setattr(viterbi_module, "_walk_steps", recording)
    decoded = ViterbiDecoder(code, decision=decision).decode(
        np.array([pool[row] for row in rows]), n_info_bits=n_bits
    )
    assert heights == [n_blocks]
    expected = [viterbi_decode_serial(code, decision, row, n_bits) for row in pool]
    for bits, row in zip(decoded, rows):
        np.testing.assert_array_equal(bits, expected[row])


def test_soft_decisions_keep_the_float_trellis(monkeypatch):
    code = ConvolutionalCode.ieee80211a()
    llrs = 1.0 - 2.0 * ConvolutionalEncoder(code).encode(np.zeros(20, dtype=np.uint8))
    decoder = ViterbiDecoder(code, decision="soft")
    calls = _count_acs_calls(decoder, monkeypatch)
    decoder.decode(llrs, n_info_bits=20)
    assert calls == [np.dtype(np.float64)]


def _gf2_product(a_taps, b_taps):
    product = 0
    for i in a_taps:
        for j in b_taps:
            product ^= 1 << (i + j)
    return product


@pytest.mark.parametrize("constraint_length, generators", [code[:2] for code in CODES])
def test_feedforward_inverse_inverts_the_code(constraint_length, generators):
    a0, a1 = _feedforward_inverse(constraint_length, generators)
    g0, g1 = (
        [i for i in range(constraint_length) if g >> (constraint_length - 1 - i) & 1]
        for g in generators
    )
    assert _gf2_product(a0, g0) ^ _gf2_product(a1, g1) == 1
    assert _feedforward_inverse(3, (0o6, 0o5)) is None


def test_feedforward_inverse_is_computed_once_per_code():
    ViterbiDecoder()
    misses = _feedforward_inverse.cache_info().misses
    for _ in range(3):
        ViterbiDecoder()
        ViterbiDecoder(ConvolutionalCode.ieee80211a())
    assert _feedforward_inverse.cache_info().misses == misses
