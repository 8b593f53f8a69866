"""Tests for repro.coding.convolutional."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coding.convolutional import (
    CONSTRAINT_LENGTH,
    GENERATORS,
    N_STATES,
    NEXT_STATES,
    OUTPUTS,
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
    PUNCTURE_PATTERNS,
)
from repro.exceptions import ConfigurationError
from reference.coding import build_trellis_serial, encode_serial


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
        code = ConvolutionalCode()
        assert CONSTRAINT_LENGTH == 7
        assert GENERATORS == (0o133, 0o171)
        assert N_STATES == 64 and code.memory == 6
        assert code.rate is CodeRate.RATE_1_2

    def test_rate_property_after_puncturing(self):
        code = ConvolutionalCode(CodeRate.RATE_3_4)
        # 3 input bits -> 4 surviving coded bits.
        assert code.puncture_period / code.puncture_pattern.sum() == pytest.approx(0.75)

    def test_rate_string_is_stored_as_its_member(self):
        code = ConvolutionalCode("3/4")
        assert code.rate is CodeRate.RATE_3_4
        assert code == ConvolutionalCode(CodeRate.RATE_3_4)
        assert hash(code) == hash(ConvolutionalCode(CodeRate.RATE_3_4))

    @pytest.mark.parametrize("rate", ["5/6", 0.5, None])
    def test_unknown_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(rate)

    def test_shared_tables_are_read_only(self):
        for table in (NEXT_STATES, OUTPUTS, *PUNCTURE_PATTERNS.values()):
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_trellis_tables_shapes(self):
        assert NEXT_STATES.shape == (64, 2)
        assert OUTPUTS.shape == (64, 2)
        assert NEXT_STATES.max() < 64
        assert OUTPUTS.max() < 4

    @pytest.mark.parametrize("rate", list(CodeRate))
    def test_punctured_80211a_trellis_matches_the_oracle(self, rate):
        # Puncturing leaves the mother code's trellis as it is.
        code = ConvolutionalCode(rate)
        for got, expected in zip((NEXT_STATES, OUTPUTS), build_trellis_serial(code)):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_trellis_each_state_has_two_predecessors(self):
        counts = np.bincount(NEXT_STATES.ravel(), minlength=N_STATES)
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
            encoder = ConvolutionalEncoder(ConvolutionalCode(rate))
            coded = encoder.encode(np.random.default_rng(2).integers(0, 2, size=120, dtype=np.uint8))
            assert coded.size == expected

    def test_coded_length_matches_actual(self):
        rng = np.random.default_rng(3)
        for rate in CodeRate:
            code = ConvolutionalCode(rate)
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
        encoder = ConvolutionalEncoder(ConvolutionalCode(CodeRate.RATE_3_4))
        bits = np.random.default_rng(5).integers(0, 2, size=32, dtype=np.uint8)
        first = encoder.encode(bits)
        encoder.encode(np.array([1, 1, 0, 1], dtype=np.uint8))
        np.testing.assert_array_equal(encoder.encode(bits), first)


class TestStackedEncoder:
    """``encode`` on an ``(n_blocks, n)`` stack encodes every row as its own block."""

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.sampled_from(list(CodeRate)),
        n_bits=st.integers(0, 300),
        n_blocks=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rate=CodeRate.RATE_3_4, n_bits=7, n_blocks=3, seed=0)
    @example(rate=CodeRate.RATE_2_3, n_bits=0, n_blocks=2, seed=0)
    @example(rate=CodeRate.RATE_2_3, n_bits=300, n_blocks=1, seed=1)
    def test_each_row_matches_the_serial_encoder(self, rate, n_bits, n_blocks, seed):
        code = ConvolutionalCode(rate)
        stack = np.random.default_rng(seed).integers(
            0, 2, size=(n_blocks, n_bits), dtype=np.uint8
        )
        coded = ConvolutionalEncoder(code).encode(stack)
        assert coded.shape == (n_blocks, code.coded_length(n_bits))
        for row, bits in zip(coded, stack):
            np.testing.assert_array_equal(row, encode_serial(code, bits))

    def test_one_block_is_a_stack_of_one(self):
        encoder = ConvolutionalEncoder(ConvolutionalCode(CodeRate.RATE_3_4))
        bits = np.random.default_rng(6).integers(0, 2, size=53, dtype=np.uint8)
        single = encoder.encode(bits)
        assert single.ndim == 1
        np.testing.assert_array_equal(encoder.encode(bits[None, :]), single[None, :])

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalEncoder().encode(np.zeros((2, 2, 5), dtype=np.uint8))
