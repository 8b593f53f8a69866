"""Tests for repro.dsp.cordic."""

import math

import numpy as np
import pytest

from repro.dsp.cordic import Cordic, cordic_gain
from repro.dsp.fixedpoint import FixedPointFormat


class TestGain:
    def test_gain_converges_to_known_constant(self):
        # The asymptotic CORDIC gain is ~1.6468.
        assert cordic_gain(16) == pytest.approx(1.64676, abs=1e-4)

    def test_gain_monotone_in_iterations(self):
        assert cordic_gain(4) < cordic_gain(16)

    def test_gain_requires_positive_iterations(self):
        with pytest.raises(ValueError):
            cordic_gain(0)


class TestVectoringMode:
    @pytest.mark.parametrize(
        "x,y",
        [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (-0.3, 0.7), (-0.5, -0.5), (0.9, -0.1)],
    )
    def test_magnitude_and_angle(self, x, y):
        result = Cordic().vector(x, y)
        assert result.magnitude == pytest.approx(math.hypot(x, y), abs=1e-4)
        assert result.angle == pytest.approx(math.atan2(y, x), abs=1e-4)

    def test_y_driven_to_zero(self):
        result = Cordic().vector(0.6, 0.8)
        assert abs(result.y) < 1e-4

    @pytest.mark.parametrize("iterations,tolerance", [(12, 1e-6), (16, 1e-8), (20, 1e-10)])
    def test_magnitude_matches_abs_over_the_unit_square(self, iterations, tolerance):
        engine = Cordic(iterations)
        rng = np.random.default_rng(iterations)
        for x, y in rng.uniform(-1.0, 1.0, size=(50, 2)):
            assert engine.vector(x, y).magnitude == pytest.approx(math.hypot(x, y), abs=tolerance)

    @pytest.mark.parametrize("scale", [0.25, 2.0, 10.0])
    def test_magnitude_scales_and_angle_does_not(self, scale):
        base = Cordic().vector(0.3, -0.4)
        scaled = Cordic().vector(0.3 * scale, -0.4 * scale)
        assert scaled.magnitude == pytest.approx(scale * base.magnitude, rel=1e-6)
        assert scaled.angle == pytest.approx(base.angle, abs=1e-6)

    def test_negative_real_axis(self):
        result = Cordic().vector(-1.0, 0.0)
        assert result.magnitude == pytest.approx(1.0, abs=1e-6)
        assert abs(result.angle) == pytest.approx(math.pi, abs=1e-4)


class TestRotationMode:
    @pytest.mark.parametrize("angle", [-2.5, -1.0, -0.1, 0.0, 0.3, 1.2, 2.9])
    def test_matches_complex_rotation(self, angle):
        value = 0.4 - 0.6j
        result = Cordic().rotate(value.real, value.imag, angle)
        expected = value * np.exp(1j * angle)
        assert result.x == pytest.approx(expected.real, abs=1e-4)
        assert result.y == pytest.approx(expected.imag, abs=1e-4)

    @pytest.mark.parametrize("angle", [-3.0, 1.5, 3.1])
    def test_rotation_preserves_magnitude(self, angle):
        result = Cordic().rotate(0.6, 0.8, angle)
        assert math.hypot(result.x, result.y) == pytest.approx(1.0, abs=1e-4)

    def test_vectoring_undoes_a_rotation(self):
        rotated = Cordic().rotate(0.5, 0.0, 0.9)
        result = Cordic().vector(rotated.x, rotated.y)
        assert result.magnitude == pytest.approx(0.5, abs=1e-4)
        assert result.angle == pytest.approx(0.9, abs=1e-4)


class TestAccuracyScaling:
    def test_more_iterations_more_accuracy(self):
        errors = []
        for iterations in (6, 10, 16, 24):
            result = Cordic(iterations).vector(0.3, 0.9)
            errors.append(abs(result.magnitude - math.hypot(0.3, 0.9)))
        assert errors[0] > errors[-1]
        assert errors[-1] < 1e-5


class TestFixedPointDatapath:
    def test_quantised_engine_still_reasonable(self):
        fmt = FixedPointFormat(word_length=18, frac_bits=14)
        engine = Cordic(iterations=14, fixed_format=fmt)
        result = engine.vector(0.7, 0.2)
        assert result.magnitude == pytest.approx(math.hypot(0.7, 0.2), abs=5e-3)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Cordic(iterations=0)

