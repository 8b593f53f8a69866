"""Tests for repro.coding.convolutional."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coding.convolutional import (
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
    PUNCTURE_PATTERNS,
)
from repro.exceptions import ConfigurationError
from reference.coding import build_trellis_serial, encode_serial

#: Codes whose trellis tables are checked against the per-state oracle:
#: a maximum-free-distance rate-1/2 code for every K = 3..9, a rate-1/3
#: code and a catastrophic pair (1 + D and 1 + D**2 share 1 + D).
TRELLIS_CODES = [
    (3, (0o5, 0o7)),
    (4, (0o15, 0o17)),
    (5, (0o23, 0o35)),
    (6, (0o53, 0o75)),
    (7, (0o133, 0o171)),
    (8, (0o247, 0o371)),
    (9, (0o561, 0o753)),
    (7, (0o133, 0o145, 0o175)),
    (3, (0o6, 0o5)),
]

#: (constraint length, generators) of the codes the stacked encoder is
#: checked on: a small code, the 802.11a code and a K = 9 code.
STACK_CODES = [(3, (0o5, 0o7)), (7, (0o133, 0o171)), (9, (0o561, 0o753))]


class TestCodeRate:
    def test_fractions(self):
        assert CodeRate.RATE_1_2.fraction == 0.5
        assert CodeRate.RATE_2_3.fraction == pytest.approx(2 / 3)
        assert CodeRate.RATE_3_4.fraction == 0.75

    def test_puncture_patterns_have_matching_rates(self):
        for rate, pattern in PUNCTURE_PATTERNS.items():
            period = pattern.shape[1]
            kept = pattern.sum()
            assert period / kept == pytest.approx(rate.fraction)


class TestCodeDefinition:
    def test_defaults_are_80211a(self):
        code = ConvolutionalCode.ieee80211a()
        assert code.constraint_length == 7
        assert code.generators == (0o133, 0o171)
        assert code.n_states == 64
        assert code.rate == pytest.approx(0.5)

    def test_rate_property_after_puncturing(self):
        code = ConvolutionalCode.ieee80211a(CodeRate.RATE_3_4)
        # 3 input bits -> 4 surviving coded bits.
        assert code.puncture_period / code.puncture_pattern.sum() == pytest.approx(0.75)

    def test_invalid_constraint_length(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(constraint_length=1, generators=(0o3, 0o1))

    def test_generator_must_fit_constraint_length(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(constraint_length=3, generators=(0o7, 0o17))

    def test_puncture_pattern_shape_checked(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(puncture_pattern=np.array([[1, 1]]))

    def test_all_zero_puncture_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(puncture_pattern=np.zeros((2, 2), dtype=np.uint8))

    def test_trellis_tables_shapes(self):
        code = ConvolutionalCode.ieee80211a()
        next_states, outputs = code.build_trellis()
        assert next_states.shape == (64, 2)
        assert outputs.shape == (64, 2)
        assert next_states.max() < 64
        assert outputs.max() < 4

    @pytest.mark.parametrize(
        "constraint_length, generators",
        TRELLIS_CODES,
        ids=[f"K{k}-{'-'.join(oct(g)[2:] for g in gens)}" for k, gens in TRELLIS_CODES],
    )
    def test_trellis_tables_match_the_per_state_oracle(self, constraint_length, generators):
        code = ConvolutionalCode(
            constraint_length=constraint_length,
            generators=generators,
            puncture_pattern=np.ones((len(generators), 1), dtype=np.uint8),
        )
        for got, expected in zip(code.build_trellis(), build_trellis_serial(code)):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("rate", list(CodeRate))
    def test_punctured_80211a_trellis_matches_the_oracle(self, rate):
        code = ConvolutionalCode.ieee80211a(rate)
        for got, expected in zip(code.build_trellis(), build_trellis_serial(code)):
            np.testing.assert_array_equal(got, expected)

    def test_trellis_each_state_has_two_predecessors(self):
        code = ConvolutionalCode.ieee80211a()
        next_states, _ = code.build_trellis()
        counts = np.bincount(next_states.ravel(), minlength=code.n_states)
        assert np.all(counts == 2)


class TestEncoder:
    def test_known_impulse_response(self):
        # A single 1 (followed by the six zero tail bits) produces the
        # generator polynomials' coefficients on the two outputs.
        coded = ConvolutionalEncoder().encode([1])
        output_a = coded[0::2]
        output_b = coded[1::2]
        # g0 = 133 octal = 1011011, g1 = 171 octal = 1111001 (MSB = current bit).
        np.testing.assert_array_equal(output_a, [1, 0, 1, 1, 0, 1, 1])
        np.testing.assert_array_equal(output_b, [1, 1, 1, 1, 0, 0, 1])

    def test_rate_half_output_length(self):
        encoder = ConvolutionalEncoder()
        coded = encoder.encode(np.random.default_rng(0).integers(0, 2, size=100, dtype=np.uint8))
        assert coded.size == 2 * (100 + 6)

    def test_termination_appends_six_zero_tail_bits(self):
        # The tail is six zeros shifted in after the data: a block that
        # already ends in them starts with exactly the shorter block.
        encoder = ConvolutionalEncoder()
        bits = np.random.default_rng(1).integers(0, 2, size=10, dtype=np.uint8)
        coded = encoder.encode(bits)
        assert coded.size == 2 * (10 + 6)
        padded = encoder.encode(np.concatenate([bits, np.zeros(6, dtype=np.uint8)]))
        np.testing.assert_array_equal(padded[: coded.size], coded)
        assert not padded[coded.size :].any()

    def test_punctured_lengths(self):
        for rate, expected in [
            (CodeRate.RATE_1_2, 252),
            (CodeRate.RATE_2_3, 189),
            (CodeRate.RATE_3_4, 168),
        ]:
            encoder = ConvolutionalEncoder(ConvolutionalCode.ieee80211a(rate))
            coded = encoder.encode(np.random.default_rng(2).integers(0, 2, size=120, dtype=np.uint8))
            assert coded.size == expected

    def test_coded_length_matches_actual(self):
        rng = np.random.default_rng(3)
        for rate in CodeRate:
            code = ConvolutionalCode.ieee80211a(rate)
            encoder = ConvolutionalEncoder(code)
            for n in (0, 1, 7, 53, 100):
                coded = encoder.encode(rng.integers(0, 2, size=n, dtype=np.uint8))
                assert coded.size == code.coded_length(n)

    def test_linearity_of_code(self):
        # Convolutional codes are linear: enc(a xor b) == enc(a) xor enc(b).
        rng = np.random.default_rng(4)
        encoder = ConvolutionalEncoder()
        a = rng.integers(0, 2, size=64, dtype=np.uint8)
        b = rng.integers(0, 2, size=64, dtype=np.uint8)
        coded_a = encoder.encode(a)
        coded_b = encoder.encode(b)
        coded_xor = encoder.encode(a ^ b)
        np.testing.assert_array_equal(coded_xor, coded_a ^ coded_b)

    def test_every_call_is_an_independent_block(self):
        encoder = ConvolutionalEncoder(ConvolutionalCode.ieee80211a(CodeRate.RATE_3_4))
        bits = np.random.default_rng(5).integers(0, 2, size=32, dtype=np.uint8)
        first = encoder.encode(bits)
        encoder.encode(np.array([1, 1, 0, 1], dtype=np.uint8))
        np.testing.assert_array_equal(encoder.encode(bits), first)


class TestStackedEncoder:
    """``encode`` on an ``(n_blocks, n)`` stack encodes every row as its own block."""

    @settings(max_examples=40, deadline=None)
    @given(
        code=st.sampled_from(STACK_CODES),
        rate=st.sampled_from(list(CodeRate)),
        n_bits=st.integers(0, 300),
        n_blocks=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(code=STACK_CODES[1], rate=CodeRate.RATE_3_4, n_bits=7, n_blocks=3, seed=0)
    @example(code=STACK_CODES[1], rate=CodeRate.RATE_2_3, n_bits=0, n_blocks=2, seed=0)
    @example(code=STACK_CODES[2], rate=CodeRate.RATE_2_3, n_bits=300, n_blocks=1, seed=1)
    def test_each_row_matches_the_serial_encoder(self, code, rate, n_bits, n_blocks, seed):
        constraint_length, generators = code
        definition = ConvolutionalCode(constraint_length, generators, PUNCTURE_PATTERNS[rate])
        stack = np.random.default_rng(seed).integers(
            0, 2, size=(n_blocks, n_bits), dtype=np.uint8
        )
        coded = ConvolutionalEncoder(definition).encode(stack)
        assert coded.shape == (n_blocks, definition.coded_length(n_bits))
        for row, bits in zip(coded, stack):
            np.testing.assert_array_equal(row, encode_serial(definition, bits))

    def test_one_block_is_a_stack_of_one(self):
        encoder = ConvolutionalEncoder(ConvolutionalCode.ieee80211a(CodeRate.RATE_3_4))
        bits = np.random.default_rng(6).integers(0, 2, size=53, dtype=np.uint8)
        single = encoder.encode(bits)
        assert single.ndim == 1
        np.testing.assert_array_equal(encoder.encode(bits[None, :]), single[None, :])

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalEncoder().encode(np.zeros((2, 2, 5), dtype=np.uint8))
