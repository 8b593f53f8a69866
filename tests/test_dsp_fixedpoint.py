"""Tests for repro.dsp.fixedpoint."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.dsp.fixedpoint import (
    FixedPointFormat,
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
)

from reference.dsp import from_integers, quantization_noise_power, to_integers


class TestFormatValidation:
    def test_rejects_tiny_word_length(self):
        with pytest.raises(ValueError):
            FixedPointFormat(word_length=1, frac_bits=0)

    def test_rejects_negative_frac_bits(self):
        with pytest.raises(ValueError):
            FixedPointFormat(word_length=8, frac_bits=-1)

    def test_rejects_frac_bits_exceeding_word(self):
        with pytest.raises(ValueError):
            FixedPointFormat(word_length=8, frac_bits=8)

    @pytest.mark.parametrize(
        "word_length, frac_bits",
        [(16, 14.0), ("16", 14), (np.float64(16), 14)],
        ids=["float-frac", "string-word", "numpy-float-word"],
    )
    def test_rejects_non_integer_sizes(self, word_length, frac_bits):
        # Float and fractional word lengths are rows of test_failure_injection.
        with pytest.raises(ConfigurationError, match="must be an integer"):
            FixedPointFormat(word_length, frac_bits)

    def test_payload_names_the_one_quantiser(self):
        fmt = FixedPointFormat(word_length=8, frac_bits=4)
        payload = fmt.to_dict()
        assert payload == {
            "word_length": 8,
            "frac_bits": 4,
            "rounding": "round",
            "overflow": "saturate",
        }
        assert FixedPointFormat.from_dict(payload) == fmt

    @pytest.mark.parametrize(
        "entry", [{"rounding": "truncate"}, {"overflow": "wrap"}], ids=["truncate", "wrap"]
    )
    def test_payload_with_another_quantiser_is_rejected(self, entry):
        with pytest.raises(ConfigurationError):
            FixedPointFormat.from_dict({"word_length": 8, "frac_bits": 4, **entry})


class TestRangesAndResolution:
    def test_resolution(self):
        fmt = FixedPointFormat(word_length=16, frac_bits=14)
        assert fmt.resolution == 2.0 ** -14

    def test_paper_formats_exist(self):
        assert SAMPLE_FORMAT_16BIT.word_length == 16
        assert MULTIPLIER_FORMAT_18BIT.word_length == 18


class TestQuantization:
    def test_exact_values_preserved(self):
        fmt = FixedPointFormat(word_length=8, frac_bits=4)
        values = np.array([0.0, 0.25, -0.5, 1.0])
        np.testing.assert_allclose(fmt.quantize(values), values)

    def test_rounding_to_nearest(self):
        fmt = FixedPointFormat(word_length=8, frac_bits=2)
        assert fmt.quantize(0.3) == pytest.approx(0.25)
        assert fmt.quantize(0.4) == pytest.approx(0.5)

    def test_halves_round_away_from_zero(self):
        fmt = FixedPointFormat(word_length=8, frac_bits=2)
        np.testing.assert_array_equal(
            fmt.quantize([0.125, -0.125, 0.375, -0.375]), [0.25, -0.25, 0.5, -0.5]
        )

    def test_saturation(self):
        fmt = FixedPointFormat(word_length=4, frac_bits=2)
        # Q(4, 2) spans [-2.0, 1.75] in steps of 0.25.
        assert fmt.quantize(100.0) == 1.75
        assert fmt.quantize(-100.0) == -2.0

    def test_quantization_error_bounded_by_half_lsb(self):
        fmt = FixedPointFormat(word_length=12, frac_bits=10)
        rng = np.random.default_rng(5)
        values = rng.uniform(-1.0, 1.0, 1000)
        error = np.abs(fmt.quantize(values) - values)
        assert np.all(error <= fmt.resolution / 2 + 1e-12)

    def test_complex_quantization(self):
        fmt = FixedPointFormat(word_length=8, frac_bits=4)
        value = 0.3 + 0.7j
        quantised = fmt.quantize_complex(value)
        assert quantised.real == fmt.quantize(0.3)
        assert quantised.imag == fmt.quantize(0.7)

    def test_quantize_rejects_complex(self):
        fmt = FixedPointFormat(word_length=8, frac_bits=4)
        with pytest.raises(TypeError):
            fmt.quantize(1.0 + 1j)


SAMPLE_WORD_FORMATS = [
    SAMPLE_FORMAT_16BIT,
    MULTIPLIER_FORMAT_18BIT,
    FixedPointFormat(word_length=8, frac_bits=6),
    # Q15: no integer bit, so the extreme codes are -1 and 1 - 2**-15.
    FixedPointFormat(word_length=16, frac_bits=15),
]
SAMPLE_WORD_IDS = ["q16.14", "q18.16", "q8.6", "q16.15"]


class TestIqSampleWords:
    """I/Q samples carried as raw two's-complement words, as on the
    converter interface: each part quantised on its own, and the raw codes
    decode back to the quantised value exactly."""

    @pytest.mark.parametrize("fmt", SAMPLE_WORD_FORMATS, ids=SAMPLE_WORD_IDS)
    def test_iq_words_round_trip_through_raw_codes(self, fmt):
        rng = np.random.default_rng(fmt.word_length)
        samples = rng.uniform(-1.9, 1.9, 256) + 1j * rng.uniform(-1.9, 1.9, 256)
        codes_i = to_integers(fmt, samples.real)
        codes_q = to_integers(fmt, samples.imag)
        lo, hi = fmt.integer_range
        assert codes_i.min() >= lo and codes_i.max() <= hi
        assert codes_q.min() >= lo and codes_q.max() <= hi
        decoded = from_integers(fmt, codes_i) + 1j * from_integers(fmt, codes_q)
        np.testing.assert_array_equal(decoded, fmt.quantize_complex(samples))

    @pytest.mark.parametrize("fmt", SAMPLE_WORD_FORMATS, ids=SAMPLE_WORD_IDS)
    def test_quantize_complex_is_idempotent(self, fmt):
        rng = np.random.default_rng(7)
        samples = 3.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
        once = fmt.quantize_complex(samples)
        np.testing.assert_array_equal(fmt.quantize_complex(once), once)

    @pytest.mark.parametrize("fmt", SAMPLE_WORD_FORMATS, ids=SAMPLE_WORD_IDS)
    def test_negative_values_survive(self, fmt):
        sample = -0.75 - 0.25j
        assert fmt.quantize_complex(sample) == sample
        scale = 2**fmt.frac_bits
        assert to_integers(fmt, sample.real) == -0.75 * scale
        assert to_integers(fmt, sample.imag) == -0.25 * scale

    @pytest.mark.parametrize("fmt", SAMPLE_WORD_FORMATS, ids=SAMPLE_WORD_IDS)
    def test_extreme_codes_are_kept_and_one_lsb_past_them_saturates(self, fmt):
        lo, hi = fmt.integer_range
        largest, smallest = hi * fmt.resolution, lo * fmt.resolution
        assert fmt.quantize(largest) == largest
        assert fmt.quantize(smallest) == smallest
        assert fmt.quantize(largest + fmt.resolution) == largest
        assert fmt.quantize(smallest - fmt.resolution) == smallest

    @pytest.mark.parametrize("fmt", SAMPLE_WORD_FORMATS, ids=SAMPLE_WORD_IDS)
    def test_full_scale_inputs_saturate_to_the_extreme_codes(self, fmt):
        lo, hi = fmt.integer_range
        np.testing.assert_array_equal(to_integers(fmt, [1e3, -1e3]), [hi, lo])
        assert fmt.quantize_complex(1e3 - 1e3j) == (hi + 1j * lo) * fmt.resolution


class TestIntegerConversion:
    def test_roundtrip(self):
        fmt = FixedPointFormat(word_length=10, frac_bits=6)
        values = np.array([0.5, -0.25, 1.125])
        raw = to_integers(fmt, values)
        np.testing.assert_allclose(from_integers(fmt, raw), values)

    def test_from_integers_range_checked(self):
        fmt = FixedPointFormat(word_length=4, frac_bits=0)
        with pytest.raises(ValueError):
            from_integers(fmt, [100])

    def test_noise_power_formula(self):
        fmt = FixedPointFormat(word_length=16, frac_bits=15)
        assert quantization_noise_power(fmt) == pytest.approx(fmt.resolution ** 2 / 12)
