"""Tests for repro.channel.awgn."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError

from repro.channel.awgn import (
    awgn_noise,
    noise_variance_for_snr,
    occupied_power,
)


class TestNoiseVariance:
    def test_zero_db(self):
        assert noise_variance_for_snr(0.0, 1.0) == pytest.approx(1.0)

    def test_ten_db(self):
        assert noise_variance_for_snr(10.0, 1.0) == pytest.approx(0.1)

    def test_scales_with_signal_power(self):
        assert noise_variance_for_snr(10.0, 4.0) == pytest.approx(0.4)

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            noise_variance_for_snr(10.0, 0.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            noise_variance_for_snr(10.0, -1.0)

    @pytest.mark.parametrize(
        "snr_db,signal_power",
        [(-10.0, 1.0), (3.0, 2.0), (20.0, 0.5), (40.0, 1.0)],
    )
    def test_closed_form(self, snr_db, signal_power):
        assert noise_variance_for_snr(snr_db, signal_power) == pytest.approx(
            signal_power * 10.0 ** (-snr_db / 10.0)
        )


class TestAwgnNoise:
    def test_variance_matches_request(self):
        noise = awgn_noise(200_000, 0.25, rng=0)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.25, rel=0.02)

    def test_circular_symmetry(self):
        noise = awgn_noise(200_000, 1.0, rng=1)
        assert np.mean(noise.real ** 2) == pytest.approx(0.5, rel=0.05)
        assert np.mean(noise.imag ** 2) == pytest.approx(0.5, rel=0.05)
        assert abs(np.mean(noise.real * noise.imag)) < 0.01

    def test_shape(self):
        assert awgn_noise((4, 100), 1.0, rng=2).shape == (4, 100)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn_noise(10, -1.0, rng=0)

    @pytest.mark.parametrize("variance", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ConfigurationError):
            awgn_noise(10, variance, rng=0)

    def test_reproducible_with_seed(self):
        np.testing.assert_array_equal(awgn_noise((4, 64), 0.5, rng=7), awgn_noise((4, 64), 0.5, rng=7))

    def test_different_seeds_draw_different_noise(self):
        assert not np.array_equal(awgn_noise(64, 0.5, rng=7), awgn_noise(64, 0.5, rng=8))

    def test_zero_variance_is_silent(self):
        noise = awgn_noise((2, 16), 0.0, rng=3)
        assert noise.shape == (2, 16)
        np.testing.assert_array_equal(noise, 0.0)

    def test_empty_shape(self):
        assert awgn_noise(0, 1.0, rng=4).size == 0


class TestOccupiedPower:
    def test_matches_plain_mean_when_fully_occupied(self):
        rng = np.random.default_rng(20)
        signal = (rng.normal(size=1000) + 1j * rng.normal(size=1000))[None]
        assert occupied_power(signal) == pytest.approx(np.mean(np.abs(signal) ** 2))

    def test_zero_padding_does_not_dilute(self):
        signal = np.ones((1, 100), dtype=complex)
        padded = np.pad(signal, ((0, 0), (400, 500)))
        assert occupied_power(padded) == pytest.approx(1.0)
        assert occupied_power(signal) == occupied_power(padded)

    def test_multi_antenna_column_occupancy(self):
        # A staggered-preamble instant where only one antenna radiates is
        # still occupied air time: the column counts with its full power
        # (including the silent antennas' zeros), only all-silent columns
        # are excluded.
        x = np.zeros((2, 4), dtype=complex)
        x[0, 1] = 2.0  # only antenna 0 active at instant 1
        x[:, 2] = 1.0  # both antennas active at instant 2
        # Occupied columns: 1 and 2 -> mean over 2 antennas * 2 instants.
        assert occupied_power(x) == pytest.approx((4.0 + 0.0 + 1.0 + 1.0) / 4.0)

    def test_silent_and_empty_signals(self):
        assert occupied_power(np.zeros((1, 16), dtype=complex)) == 0.0
        assert occupied_power(np.zeros((4, 0), dtype=complex)) == 0.0

