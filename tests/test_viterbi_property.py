"""Property test: the stacked Viterbi decoder against the per-branch oracle.

:meth:`ViterbiDecoder.decode` runs a whole ``(n_blocks, n_coded)`` stack
through one block-minor trellis pass and one table traceback, which walks
a short stack block by block and a tall one all blocks at once.  Every row
must decode exactly as ``tests/reference/coding.py::viterbi_decode_serial``
decodes it alone, whatever the stack height (across ``DECODE_SLICE``), the
block length (across several branch-metric gathers, which cover fewer
steps the taller the stack, down to the empty block whose trellis is the
tail alone), the decision mode, the code rate and ties forced by zero
LLRs.  A stream push's stack, above the walk crossover, is pinned at hard
and soft decisions and rates 1/2 and 3/4.

The serial oracle costs a Python loop over every state per step, so a stack
is built from a small pool of distinct rows placed at random positions, and
the oracle runs once per pool row.

Ties decide a decode only through the tie rule, so stacks built to tie
exactly are pinned at every rate, hard and soft, on both sides of the walk
crossover: received words halfway between two codewords, erased (zero-LLR)
stretches in clean blocks and zero-LLR stretches in noisy ones.

Hard rate-1/2 blocks that already form a codeword skip the trellis, so a
second property mixes codewords with blocks one flip away from one (the
flip also in the tail) and checks both the codeword test and the decode.
The codeword test and the integer hard trellis are also pinned directly:
an all-codeword stack never reaches add-compare-select, the punctured hard
rates run the ``int32`` trellis, and the feedforward inverse the codeword
test uses is the one extended Euclid derives.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.coding.convolutional as convolutional_module
from repro.coding.convolutional import (
    CONSTRAINT_LENGTH,
    GENERATOR_TAPS,
    GENERATORS,
    MEMORY,
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
)
import repro.coding.viterbi as viterbi_module
from repro.coding.viterbi import ViterbiDecoder, _INVERSE_TAPS, _gather_steps
from repro.core.receiver import DECODE_SLICE
from reference.coding import viterbi_decode_serial

#: Most information bits per block.
MAX_BITS = 90
MAX_BLOCKS = 130

assert MAX_BLOCKS > DECODE_SLICE and MAX_BITS > _gather_steps(1)


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
@example(**_EXAMPLE)  # the longest blocks, the tallest stack
@given(
    rate=st.sampled_from(list(CodeRate)),
    decision=st.sampled_from(["hard", "soft"]),
    n_blocks=st.integers(1, MAX_BLOCKS),
    pool_size=st.integers(1, 4),
    bits_fraction=st.floats(0.0, 1.0),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_decodes_like_the_serial_oracle(
    rate, decision, n_blocks, pool_size, bits_fraction, zero_fraction, seed
):
    code = ConvolutionalCode(rate)
    # Blocks of zero information bits still run the tail steps.
    n_bits = int(round(bits_fraction * MAX_BITS))
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


#: Information bits of a tie-built block.
TIE_BITS = 48


def _halfway_word(code, rng, n_events):
    """Coded bits halfway between two codewords, and both codewords.

    Each error event flips a short run of information bits whose punctured
    codeword difference has an even weight ``w``; flipping ``w / 2`` of
    those positions leaves the word at equal Hamming distance from both
    codewords (5 of 10 for one flipped bit at rate 1/2).
    """
    encoder = ConvolutionalEncoder(code)
    info = rng.integers(0, 2, TIE_BITS).astype(np.uint8)
    first = encoder.encode(info)
    received = first.copy()
    other = info.copy()
    for start in rng.permutation(np.arange(0, TIE_BITS - 3, 12))[:n_events]:
        for event in ([1], [1, 1], [1, 0, 1], [1, 1, 1]):
            flipped = info.copy()
            flipped[start : start + len(event)] ^= np.array(event, dtype=np.uint8)
            differ = np.flatnonzero(encoder.encode(flipped) != first)
            if differ.size % 2 == 0:
                break
        assert differ.size % 2 == 0
        received[rng.choice(differ, differ.size // 2, replace=False)] ^= 1
        other[start : start + len(event)] ^= np.array(event, dtype=np.uint8)
    return received, first, encoder.encode(other)


def _tie_pool(code, decision, rng):
    """Rows built to tie exactly: halfway words, and for soft decisions
    erased stretches in clean blocks and zero-LLR stretches in noisy ones."""
    pool = []
    for n_events in (1, 2):
        received, first, second = _halfway_word(code, rng, n_events)
        assert np.count_nonzero(received != first) == np.count_nonzero(received != second)
        # Bits become ±1 LLRs, whose correlations tie just as the distances do.
        pool.append(received.astype(np.float64) if decision == "hard" else 1.0 - 2.0 * received)
    if decision == "soft":
        coded = ConvolutionalEncoder(code).encode(
            rng.integers(0, 2, TIE_BITS).astype(np.uint8)
        )
        clean = 2.0 * (1.0 - 2.0 * coded)
        erased = clean.copy()
        erased[20:60] = 0.0  # every kept value of about 20 steps
        noisy = clean + rng.normal(0.0, 1.0, coded.size)
        noisy[10:40] = 0.0
        noisy[70:80] = 0.0
        pool += [erased, noisy]
    return pool


@pytest.mark.parametrize(
    "n_blocks",
    [viterbi_module._STEP_WALK_ROWS - 1, viterbi_module._STEP_WALK_ROWS],
    ids=["walk-blocks", "walk-steps"],
)
@pytest.mark.parametrize("decision", ["hard", "soft"])
@pytest.mark.parametrize("rate", list(CodeRate), ids=lambda rate: rate.value)
def test_tied_stacks_decode_like_the_serial_oracle(rate, decision, n_blocks, monkeypatch):
    code = ConvolutionalCode(rate)
    rng = np.random.default_rng(60 + 2 * list(CodeRate).index(rate) + (decision == "soft"))
    pool = _tie_pool(code, decision, rng)
    rows = np.arange(n_blocks) % len(pool)
    walks = []
    for name in ("_walk_blocks", "_walk_steps"):
        walk = getattr(viterbi_module, name)

        def recording(table, walk=walk, name=name):
            walks.append(name)
            return walk(table)

        monkeypatch.setattr(viterbi_module, name, recording)
    decoded = ViterbiDecoder(code, decision=decision).decode(
        np.array([pool[row] for row in rows]), n_info_bits=TIE_BITS
    )
    # No tie-built row is a codeword, so every row runs the trellis.
    tall = n_blocks >= viterbi_module._STEP_WALK_ROWS
    assert walks == ["_walk_steps" if tall else "_walk_blocks"]
    expected = [viterbi_decode_serial(code, decision, row, TIE_BITS) for row in pool]
    for bits, row in zip(decoded, rows):
        np.testing.assert_array_equal(bits, expected[row])


#: Row kinds of the fast-path property: a codeword, and one coded bit
#: flipped anywhere or inside the tail steps.
ROW_KINDS = ("codeword", "flip", "tail flip")


def _near_codeword_row(code, n_bits, kind, rng):
    info = rng.integers(0, 2, n_bits).astype(np.uint8)
    coded = ConvolutionalEncoder(code).encode(info).astype(np.float64)
    if kind != "codeword":
        first = coded.size - 2 * MEMORY if kind == "tail flip" else 0
        position = rng.integers(first, coded.size)
        coded[position] = 1.0 - coded[position]
    return coded


@settings(deadline=None, max_examples=40)
@example(n_blocks=MAX_BLOCKS, bits_fraction=1.0, kinds=list(ROW_KINDS), seed=3)
@example(n_blocks=3, bits_fraction=0.0, kinds=["codeword", "tail flip"], seed=4)
@example(n_blocks=DECODE_SLICE + 1, bits_fraction=0.5, kinds=["codeword"], seed=5)
@given(
    n_blocks=st.integers(1, MAX_BLOCKS),
    bits_fraction=st.floats(0.0, 1.0),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_codeword_fast_path_decodes_like_the_serial_oracle(n_blocks, bits_fraction, kinds, seed):
    code = ConvolutionalCode()
    n_bits = int(round(bits_fraction * MAX_BITS))
    rng = np.random.default_rng(seed)
    pool = [_near_codeword_row(code, n_bits, kind, rng) for kind in kinds]
    rows = rng.integers(0, len(pool), n_blocks)
    stack = np.array([pool[row] for row in rows])

    decoder = ViterbiDecoder(code)
    _, is_codeword = decoder._codewords(stack.astype(np.uint8), n_bits)
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
    code = ConvolutionalCode()
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
    [ConvolutionalCode(CodeRate.RATE_2_3), ConvolutionalCode(CodeRate.RATE_3_4)],
    ids=["rate-2/3", "rate-3/4"],
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
    code = ConvolutionalCode(rate)
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
    code = ConvolutionalCode()
    llrs = 1.0 - 2.0 * ConvolutionalEncoder(code).encode(np.zeros(20, dtype=np.uint8))
    decoder = ViterbiDecoder(code, decision="soft")
    calls = _count_acs_calls(decoder, monkeypatch)
    decoder.decode(llrs, n_info_bits=20)
    assert calls == [np.dtype(np.float64)]


def _gf2_multiply(a, b):
    """Product of two GF(2)[D] polynomials held as ints (bit i is D**i)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    return product


def _gf2_divmod(a, b):
    """Quotient and remainder of GF(2)[D] polynomial division."""
    quotient = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        quotient ^= 1 << shift
        a ^= b << shift
    return quotient, a


def _polynomial(taps):
    """Tap delays as a GF(2)[D] polynomial held as an int."""
    return sum(1 << delay for delay in taps)


def test_feedforward_inverse_inverts_the_code():
    # Each generator as a polynomial in D: its MSB taps the current bit, D**0.
    g0, g1 = (
        sum((g >> (CONSTRAINT_LENGTH - 1 - i) & 1) << i for i in range(CONSTRAINT_LENGTH))
        for g in GENERATORS
    )
    assert (g0, g1) == tuple(_polynomial(taps) for taps in GENERATOR_TAPS)
    # Extended Euclid: both rows keep r = s * g0 + t * g1.
    r0, s0, t0 = g0, 1, 0
    r1, s1, t1 = g1, 0, 1
    while r1:
        quotient, remainder = _gf2_divmod(r0, r1)
        r0, r1 = r1, remainder
        s0, s1 = s1, s0 ^ _gf2_multiply(quotient, s1)
        t0, t1 = t1, t0 ^ _gf2_multiply(quotient, t1)
    assert r0 == 1  # the generators share no factor: the code is not catastrophic
    assert (s0, t0) == tuple(_polynomial(taps) for taps in _INVERSE_TAPS)
    a0, a1 = (_polynomial(taps) for taps in _INVERSE_TAPS)
    assert _gf2_multiply(a0, g0) ^ _gf2_multiply(a1, g1) == 1


def test_decoders_share_the_tables_built_once_per_process(monkeypatch):
    # Building a code, an encoder or a decoder (as every transceiver
    # rebuild does) never rebuilds the trellis tables.
    def rebuilt():
        raise AssertionError("the trellis tables were rebuilt")

    monkeypatch.setattr(convolutional_module, "_build_trellis", rebuilt)
    info = np.random.default_rng(13).integers(0, 2, (2, 40)).astype(np.uint8)
    for rate in CodeRate:
        code = ConvolutionalCode(rate)
        coded = ConvolutionalEncoder(code).encode(info)
        for decision, received in (("hard", coded), ("soft", 1.0 - 2.0 * coded)):
            decoded = ViterbiDecoder(code, decision=decision).decode(received, n_info_bits=40)
            np.testing.assert_array_equal(decoded, info)
    assert ViterbiDecoder().code.memory == MEMORY
