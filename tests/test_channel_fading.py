"""Tests for repro.channel.fading."""

import numpy as np
import pytest

from repro.channel.fading import (
    N_TAPS,
    FlatRayleighChannel,
    FrequencySelectiveChannel,
    exponential_power_delay_profile,
    rayleigh_matrix,
)

from reference.channel import rayleigh_taps


class TestRayleighMatrix:
    def test_shape(self):
        assert rayleigh_matrix(4, 4, rng=0).shape == (4, 4)
        assert rayleigh_matrix(2, 3, rng=0).shape == (2, 3)

    def test_unit_average_power(self):
        rng = np.random.default_rng(1)
        powers = [np.mean(np.abs(rayleigh_matrix(4, 4, rng)) ** 2) for _ in range(200)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.1)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            rayleigh_matrix(0, 4, rng=0)

    def test_normalize_rescales_the_same_draw(self):
        # CN(0, 1) entries: the raw unit-variance-per-component draw over
        # sqrt(2), so the convention cannot drift silently.
        a = rayleigh_matrix(3, 3, rng=np.random.default_rng(12))
        generator = np.random.default_rng(12)
        raw = generator.normal(size=(3, 3)) + 1j * generator.normal(size=(3, 3))
        np.testing.assert_allclose(raw, a * np.sqrt(2.0))


class TestPowerDelayProfile:
    def test_sums_to_one(self):
        profile = exponential_power_delay_profile()
        assert profile.sum() == pytest.approx(1.0)

    def test_monotonically_decaying(self):
        profile = exponential_power_delay_profile()
        assert profile.shape == (N_TAPS,)
        assert np.all(np.diff(profile) < 0)


class TestFlatRayleighChannel:
    def test_apply_is_matrix_multiplication(self):
        matrix = np.array([[1, 2], [3, 4]], dtype=complex)
        channel = FlatRayleighChannel(n_rx=2, n_tx=2, matrix=matrix)
        x = np.array([[1, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(channel.apply(x), matrix @ x)

    def test_frequency_response_constant_across_subcarriers(self):
        channel = FlatRayleighChannel(rng=2)
        response = channel.frequency_response(64)
        assert response.shape == (64, 4, 4)
        np.testing.assert_allclose(response[0], response[63])

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            FlatRayleighChannel(n_rx=4, n_tx=4, matrix=np.eye(2))

    def test_apply_shape_validation(self):
        channel = FlatRayleighChannel(rng=3)
        with pytest.raises(ValueError):
            channel.apply(np.ones((3, 10), dtype=complex))


class TestFrequencySelectiveChannel:
    def test_frequency_response_matches_fft_of_taps(self):
        channel = FrequencySelectiveChannel(n_rx=2, n_tx=2, taps=rayleigh_taps(2, 2, 3, rng=4))
        response = channel.frequency_response(64)
        manual = np.fft.fft(channel.taps[1, 0], 64)
        np.testing.assert_allclose(response[:, 1, 0], manual)

    def test_frequency_response_bit_identical_through_dsp_seam(self):
        """The response routes through the shared FftPlan (SEAM001 fix).

        Pins bit-identical agreement between ``frequency_response`` and the
        planned transform it now delegates to, and checks the result against
        the naive DFT definition.  The response is ground-truth diagnostics
        (only attached when a caller asks for it; never consumed by the
        decision datapath), so the last-bit difference vs the old
        ``np.fft.fft`` path changes no engine statistic and needs no
        ``ENGINE_VERSION`` bump.
        """
        from repro.dsp.fft import get_plan

        channel = FrequencySelectiveChannel(n_rx=2, n_tx=3, rng=11)
        response = channel.frequency_response(64)

        padded = np.zeros((2, 3, 64), dtype=np.complex128)
        padded[:, :, :4] = channel.taps
        seam = np.transpose(get_plan(64).forward(padded), (2, 0, 1))
        assert np.array_equal(response, seam)

        subcarriers = np.arange(64)
        taps = np.arange(4)
        dft = np.exp(-2j * np.pi * np.outer(subcarriers, taps) / 64)
        manual = np.einsum("kt,rst->krs", dft, channel.taps)
        np.testing.assert_allclose(response, manual, atol=1e-12)

    def test_single_tap_reduces_to_flat(self):
        channel = FrequencySelectiveChannel(taps=rayleigh_taps(4, 4, 1, rng=5))
        response = channel.frequency_response(64)
        np.testing.assert_allclose(response[0], response[32])

    def test_apply_convolution_against_manual(self):
        channel = FrequencySelectiveChannel(n_rx=1, n_tx=1, rng=6)
        x = np.zeros((1, 16), dtype=complex)
        x[0, 0] = 1.0  # impulse reveals the taps
        y = channel.apply(x)
        np.testing.assert_allclose(y[0, :4], channel.taps[0, 0])

    def test_output_shape_preserved(self):
        channel = FrequencySelectiveChannel(rng=7)
        x = np.random.default_rng(8).normal(size=(4, 100)) + 0j
        assert channel.apply(x).shape == (4, 100)

    def test_response_varies_across_subcarriers(self):
        channel = FrequencySelectiveChannel(taps=rayleigh_taps(4, 4, 6, rng=9))
        response = channel.frequency_response(64)
        assert not np.allclose(response[0], response[32])

    def test_taps_shape_validation(self):
        with pytest.raises(ValueError):
            FrequencySelectiveChannel(n_rx=2, n_tx=2, taps=np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            FrequencySelectiveChannel(n_rx=2, n_tx=2, taps=np.zeros((2, 2, 0)))

    def test_injected_taps_set_the_tap_count(self):
        channel = FrequencySelectiveChannel(n_rx=2, n_tx=2, taps=np.ones((2, 2, 7)))
        assert channel.n_taps == 7
        assert FrequencySelectiveChannel(rng=0).n_taps == N_TAPS

    def test_reference_draw_is_the_channel_draw(self):
        np.testing.assert_array_equal(
            FrequencySelectiveChannel(rng=12).taps, rayleigh_taps(4, 4, N_TAPS, rng=12)
        )

    def test_fft_size_must_cover_taps(self):
        channel = FrequencySelectiveChannel(rng=10)
        with pytest.raises(ValueError):
            channel.frequency_response(2)
