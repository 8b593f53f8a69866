"""Tests for repro.coding.viterbi."""

import warnings

import numpy as np
import pytest

from repro.coding.convolutional import CodeRate, ConvolutionalCode, ConvolutionalEncoder
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.frame import FrontEndResult
from repro.core.receiver import MimoReceiver
from repro.exceptions import ConfigurationError, DecodingError, ReproError
from repro.utils.bits import count_bit_errors


def _encode(bits, rate=CodeRate.RATE_1_2):
    encoder = ConvolutionalEncoder(ConvolutionalCode(rate))
    return encoder.encode(bits)


class TestHardDecisionDecoding:
    def test_error_free_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=120, dtype=np.uint8)
        decoded = ViterbiDecoder().decode(_encode(bits), n_info_bits=120)
        np.testing.assert_array_equal(decoded, bits)

    def test_roundtrip_all_zero_and_all_one(self):
        decoder = ViterbiDecoder()
        zeros = np.zeros(40, dtype=np.uint8)
        ones = np.ones(40, dtype=np.uint8)
        np.testing.assert_array_equal(decoder.decode(_encode(zeros), 40), zeros)
        np.testing.assert_array_equal(decoder.decode(_encode(ones), 40), ones)

    def test_corrects_isolated_bit_errors(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=200, dtype=np.uint8)
        coded = _encode(bits)
        corrupted = coded.copy()
        # Flip well-separated coded bits; K=7 corrects these easily.
        for position in (10, 90, 170, 250, 330):
            corrupted[position] ^= 1
        decoded = ViterbiDecoder().decode(corrupted, n_info_bits=200)
        np.testing.assert_array_equal(decoded, bits)

    def test_burst_of_errors_causes_failures(self):
        # A long error burst exceeds the code's correction ability; the
        # decoder should NOT silently return the transmitted bits.
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        coded = _encode(bits)
        corrupted = coded.copy()
        corrupted[40:80] ^= 1
        decoded = ViterbiDecoder().decode(corrupted, n_info_bits=100)
        assert count_bit_errors(decoded, bits) > 0

    def test_block_length_comes_from_n_info_bits(self):
        # No length is inferred: a block read as one bit shorter or longer
        # than it was encoded does not match its coded length.
        coded = _encode(np.random.default_rng(3).integers(0, 2, size=64, dtype=np.uint8))
        decoder = ViterbiDecoder()
        for wrong in (63, 65):
            with pytest.raises(ConfigurationError):
                decoder.decode(coded, n_info_bits=wrong)
        with pytest.raises(ConfigurationError):
            decoder.decode(coded, n_info_bits=-1)

    def test_empty_block(self):
        decoded = ViterbiDecoder().decode(np.zeros(12), n_info_bits=0)
        assert decoded.size == 0


class TestPuncturedDecoding:
    @pytest.mark.parametrize("rate", [CodeRate.RATE_2_3, CodeRate.RATE_3_4])
    def test_error_free_roundtrip(self, rate):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=120, dtype=np.uint8)
        code = ConvolutionalCode(rate)
        decoder = ViterbiDecoder(code)
        decoded = decoder.decode(_encode(bits, rate), n_info_bits=120)
        np.testing.assert_array_equal(decoded, bits)

    @pytest.mark.parametrize("rate", [CodeRate.RATE_2_3, CodeRate.RATE_3_4])
    def test_corrects_sparse_errors(self, rate):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=150, dtype=np.uint8)
        code = ConvolutionalCode(rate)
        coded = _encode(bits, rate)
        corrupted = coded.copy()
        corrupted[15] ^= 1
        corrupted[130] ^= 1
        decoded = ViterbiDecoder(code).decode(corrupted, n_info_bits=150)
        np.testing.assert_array_equal(decoded, bits)

    def test_depuncture_shapes(self):
        code = ConvolutionalCode(CodeRate.RATE_3_4)
        decoder = ViterbiDecoder(code)
        encoder = ConvolutionalEncoder(code)
        bits = np.random.default_rng(7).integers(0, 2, size=30, dtype=np.uint8)
        coded = encoder.encode(bits)
        full, mask = decoder.depuncture(coded, n_input_bits=36)
        assert full.shape == (36, 2)
        assert mask.shape == (36, 2)
        # 3/4 puncturing keeps 4 of every 6 mother bits.
        assert mask.sum() == coded.size

    def test_depuncture_length_mismatch(self):
        decoder = ViterbiDecoder()
        with pytest.raises(ValueError):
            decoder.depuncture(np.zeros(11), n_input_bits=6)


class TestSoftDecisionDecoding:
    def test_error_free_roundtrip_with_llrs(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        coded = _encode(bits).astype(np.float64)
        llrs = 4.0 * (1.0 - 2.0 * coded)  # bit 0 -> +4, bit 1 -> -4
        decoder = ViterbiDecoder(decision="soft")
        decoded = decoder.decode(llrs, n_info_bits=100)
        np.testing.assert_array_equal(decoded, bits)

    def test_soft_information_beats_hard_on_noisy_channel(self):
        rng = np.random.default_rng(9)
        n_info = 400
        bits = rng.integers(0, 2, size=n_info, dtype=np.uint8)
        coded = _encode(bits).astype(np.float64)
        bpsk = 1.0 - 2.0 * coded
        noisy = bpsk + rng.normal(0.0, 0.9, size=bpsk.size)
        hard_bits = (noisy < 0).astype(np.uint8)
        hard_decoded = ViterbiDecoder(decision="hard").decode(hard_bits, n_info_bits=n_info)
        soft_decoded = ViterbiDecoder(decision="soft").decode(2 * noisy, n_info_bits=n_info)
        hard_errors = count_bit_errors(hard_decoded, bits)
        soft_errors = count_bit_errors(soft_decoded, bits)
        assert soft_errors <= hard_errors

    def test_invalid_decision_mode(self):
        with pytest.raises(ConfigurationError):
            ViterbiDecoder(decision="fuzzy")


class TestMalformedInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_non_finite_value_raises_decoding_error(self, decision, bad):
        llrs = 4.0 * (1.0 - 2.0 * _encode(np.zeros(20, dtype=np.uint8)).astype(np.float64))
        stack = np.stack([llrs, llrs])
        stack[1, 7] = bad
        decoder = ViterbiDecoder(decision=decision)
        with pytest.raises(DecodingError, match="finite"):
            decoder.decode(stack, n_info_bits=20)
        with pytest.raises(DecodingError, match="finite"):
            decoder.decode(stack[1], n_info_bits=20)

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5])
    def test_hard_decision_non_bit_raises_decoding_error(self, bad):
        stack = np.stack([_encode(np.zeros(20, dtype=np.uint8))] * 2).astype(np.float64)
        stack[1, 7] = bad
        decoder = ViterbiDecoder()
        with pytest.raises(DecodingError, match="bits"):
            decoder.decode(stack, n_info_bits=20)
        with pytest.raises(DecodingError, match="bits"):
            decoder.decode(np.full(32, bad), n_info_bits=10)
        # The same values are ordinary LLRs for a soft decoder.
        assert ViterbiDecoder(decision="soft").decode(stack, n_info_bits=20).shape == (2, 20)

    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_complex_input_raises_decoding_error_without_a_cast(self, decision):
        coded = _encode(np.zeros(20, dtype=np.uint8)).astype(np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecodingError, match="real"):
                ViterbiDecoder(decision=decision).decode(coded, n_info_bits=20)

    def test_three_dimensional_input_raises_decoding_error(self):
        coded = _encode(np.zeros(20, dtype=np.uint8))
        with pytest.raises(DecodingError, match="got 3 dimensions"):
            ViterbiDecoder().decode(coded.reshape(2, 2, -1), n_info_bits=20)

    def test_decoding_error_is_a_repro_error(self):
        assert issubclass(DecodingError, ReproError)


def _hard_stack(rate=CodeRate.RATE_1_2):
    """A codeword row and a row one flip from a codeword, 20 bits each."""
    rng = np.random.default_rng(10)
    coded = _encode(rng.integers(0, 2, (2, 20)).astype(np.uint8), rate)
    coded[1, 5] ^= 1
    return coded


def _front(coded):
    return FrontEndResult(
        coded=coded,
        equalized=np.zeros((len(coded), 1, 1), dtype=complex),
        lts_start=0,
        channel_estimate=None,
        estimated_cfo=0.0,
        mean_pilot_phase=0.0,
    )


def _front_doors(stack, n_info_bits=20):
    """Decode ``stack`` through both front doors, one call each."""
    yield lambda: ViterbiDecoder().decode(stack, n_info_bits=n_info_bits)
    yield lambda: MimoReceiver().decode_stack([_front(stack)], n_info_bits)


class TestHardFrontDoor:
    """``ViterbiDecoder.decode`` and ``MimoReceiver.decode_stack`` check hard
    input once, whatever its dtype, before it becomes bits."""

    @pytest.mark.parametrize(
        "bad",
        [2, 0.5, -1, np.nan, np.inf, -np.inf, 1j],
        ids=["two", "half", "minus-one", "nan", "inf", "minus-inf", "complex"],
    )
    def test_non_bit_values_raise_decoding_error(self, bad):
        stack = _hard_stack().astype(np.result_type(np.asarray(bad), np.uint8))
        stack[1, 7] = bad
        for decode in _front_doors(stack):
            with pytest.raises(DecodingError):
                decode()

    @pytest.mark.parametrize(
        "shape", [(2, 2, 52), (0, 52), (2, 0)], ids=["3-d", "no-rows", "no-values"]
    )
    def test_malformed_stacks_raise_decoding_error(self, shape):
        for decode in _front_doors(np.zeros(shape, dtype=np.uint8)):
            with pytest.raises(DecodingError):
                decode()

    @pytest.mark.parametrize(
        "n_info_bits",
        [20.0, 20.5, "20", np.float64(20), None],
        ids=["float", "fractional", "string", "numpy-float", "none"],
    )
    def test_non_integer_block_length_raises_configuration_error(self, n_info_bits):
        for decode in _front_doors(_hard_stack(), n_info_bits):
            with pytest.raises(ConfigurationError):
                decode()

    @pytest.mark.parametrize("rate", [CodeRate.RATE_1_2, CodeRate.RATE_3_4])
    def test_every_bit_dtype_decodes_to_identical_bits(self, rate):
        stack = _hard_stack(rate)
        decoder = ViterbiDecoder(ConvolutionalCode(rate))
        receiver = MimoReceiver(TransceiverConfig(code_rate=rate))
        expected = decoder.decode(stack, n_info_bits=20)
        descrambled = receiver.decode_stack([_front(stack)], 20)[0].decoded_bits
        for dtype in (np.uint8, bool, np.int64, np.float64):
            bits = stack.astype(dtype)
            np.testing.assert_array_equal(decoder.decode(bits, n_info_bits=20), expected)
            np.testing.assert_array_equal(decoder.decode(bits[1], n_info_bits=20), expected[1])
            result = receiver.decode_stack([_front(bits)], 20)[0]
            np.testing.assert_array_equal(result.decoded_bits, descrambled)
