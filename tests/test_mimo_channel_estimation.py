"""Tests for repro.mimo.channel_estimation."""

import numpy as np
import pytest
from scipy.stats import chi2

from repro.channel.model import IdealChannel, MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.cordic import Cordic
from repro.exceptions import ChannelEstimationError, ConfigurationError
from repro.mimo.channel_estimation import (
    ChannelEstimator,
    estimate_channel_from_lts,
    invert_channel_stack,
)
from repro.mimo.matrix import frobenius_error


def _reference_lts(fft_size=64, n_active=52, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    lts = np.zeros(fft_size, dtype=np.complex128)
    active = np.concatenate(
        [np.arange(1, n_active // 2 + 1), np.arange(fft_size - n_active // 2, fft_size)]
    )
    lts[active] = rng.integers(0, 2, size=active.size) * 2.0 - 1.0
    return lts


def _received_from_channel(channel, lts):
    """Synthesize one burst's staggered-LTS observations for a known channel."""
    fft_size, n_rx, n_tx = channel.shape
    received = np.zeros((n_tx, n_rx, fft_size), dtype=np.complex128)
    for k in range(fft_size):
        for tx in range(n_tx):
            received[tx, :, k] = channel[k, :, tx] * lts[k]
    return received


class TestEstimateFromLts:
    def test_perfect_estimation_without_noise(self):
        rng = np.random.default_rng(1)
        lts = _reference_lts()
        true_channel = np.zeros((64, 4, 4), dtype=np.complex128)
        active = np.abs(lts) > 0
        true_channel[active] = (
            rng.normal(size=(active.sum(), 4, 4)) + 1j * rng.normal(size=(active.sum(), 4, 4))
        )
        received = _received_from_channel(true_channel, lts)
        estimate = estimate_channel_from_lts(received, lts)
        np.testing.assert_allclose(estimate[active], true_channel[active], atol=1e-12)

    def test_inactive_subcarriers_left_zero(self):
        lts = _reference_lts()
        received = np.zeros((4, 4, 64), dtype=np.complex128)
        estimate = estimate_channel_from_lts(received, lts)
        inactive = np.abs(lts) == 0
        assert np.all(estimate[inactive] == 0)

    def test_shape_validation(self):
        lts = _reference_lts()
        with pytest.raises(ValueError):
            estimate_channel_from_lts(np.zeros((4, 64)), lts)
        with pytest.raises(ValueError):
            estimate_channel_from_lts(np.zeros((4, 4, 32)), lts)

    def test_active_mask_with_zero_reference_rejected(self):
        lts = _reference_lts()
        mask = np.ones(64, dtype=bool)  # marks DC active although LTS(0) == 0
        with pytest.raises(ChannelEstimationError):
            estimate_channel_from_lts(np.ones((4, 4, 64), dtype=complex), lts, mask)


def _invert(channel, *args, **kwargs):
    """Inverses of a stack that must hold no singular matrix."""
    inverses, singular = invert_channel_stack(channel, *args, **kwargs)
    assert not singular.any()
    return inverses


class TestInvertChannelStack:
    def test_inverses_are_correct(self):
        rng = np.random.default_rng(2)
        channel = np.zeros((16, 4, 4), dtype=np.complex128)
        channel[:] = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
        inverses = _invert(channel)
        for k in range(16):
            np.testing.assert_allclose(inverses[k] @ channel[k], np.eye(4), atol=1e-9)

    def test_active_mask_respected(self):
        rng = np.random.default_rng(3)
        channel = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        mask = np.zeros(8, dtype=bool)
        mask[2] = True
        inverses = _invert(channel, mask)
        assert np.all(inverses[0] == 0)
        np.testing.assert_allclose(inverses[2] @ channel[2], np.eye(4), atol=1e-9)

    def test_cordic_path_close_to_float(self):
        rng = np.random.default_rng(4)
        channel = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
        float_inv = _invert(channel)
        cordic_inv = _invert(channel, cordic=Cordic(iterations=20))
        np.testing.assert_allclose(cordic_inv, float_inv, atol=1e-3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            invert_channel_stack(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            invert_channel_stack(np.zeros((4, 4, 4)), np.ones(3, dtype=bool))


class TestChannelEstimator:
    def test_end_to_end_estimate(self):
        rng = np.random.default_rng(5)
        lts = _reference_lts()
        active = np.abs(lts) > 0
        true_channel = np.zeros((64, 4, 4), dtype=np.complex128)
        true_channel[active] = (
            rng.normal(size=(active.sum(), 4, 4)) + 1j * rng.normal(size=(active.sum(), 4, 4))
        )
        estimator = ChannelEstimator(lts)
        stacked, errors = estimator.estimate(_received_from_channel(true_channel, lts)[None])
        assert errors == [None]
        estimate = stacked[0]
        assert estimate.matrices.shape == estimate.inverses.shape == (64, 4, 4)
        mask = estimate.active_mask
        assert frobenius_error(estimate.matrices[mask], true_channel[mask]) < 1e-12
        for k in np.nonzero(active)[0]:
            np.testing.assert_allclose(
                estimate.inverses[k] @ true_channel[k], np.eye(4), atol=1e-8
            )

    def test_estimation_error_metric_nonzero_with_noise(self):
        rng = np.random.default_rng(6)
        lts = _reference_lts()
        active = np.abs(lts) > 0
        true_channel = np.zeros((64, 4, 4), dtype=np.complex128)
        true_channel[active] = (
            rng.normal(size=(active.sum(), 4, 4)) + 1j * rng.normal(size=(active.sum(), 4, 4))
        )
        received = _received_from_channel(true_channel, lts)
        received += 0.01 * (
            rng.normal(size=received.shape) + 1j * rng.normal(size=received.shape)
        )
        stacked, _ = ChannelEstimator(lts).estimate(received[None])
        estimate = stacked[0]
        mask = estimate.active_mask
        error = frobenius_error(estimate.matrices[mask], true_channel[mask])
        assert 0 < error < 0.05

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            ChannelEstimator(np.array([]))

    def test_singular_channel_gets_its_slot(self):
        lts = _reference_lts()
        estimator = ChannelEstimator(lts)
        _, (error,) = estimator.estimate(np.zeros((1, 4, 4, 64), dtype=complex))
        assert isinstance(error, ChannelEstimationError)

    @pytest.mark.parametrize("shape", [(4, 4, 64), (1, 1, 4, 4, 64)])
    def test_anything_but_a_stack_is_rejected(self, shape):
        estimator = ChannelEstimator(_reference_lts())
        with pytest.raises(ConfigurationError, match="n_items, n_tx, n_rx, fft_size"):
            estimator.estimate(np.zeros(shape, dtype=complex))


#: Two-sided false-alarm rate of each χ² case below.
CHI2_ALPHA = 1e-3


@pytest.mark.parametrize("fft_size", [64, 512])
def test_least_squares_error_variance_matches_theory(fft_size):
    # On the ideal channel at known timing, each LTS slot's two
    # repetitions carry independent per-bin noise of variance N σ² (the
    # FFT is unnormalised), so the averaged ratio Y / X_k misses the true
    # entry by complex Gaussian noise of variance N σ² / (2 |X_k|²).  Over
    # every entry of eight bursts, Σ 2|e|² / variance is χ² with two
    # degrees of freedom per entry; a factor-of-two slip lands far outside.
    config = TransceiverConfig(fft_size=fft_size)
    transmitter, receiver = MimoTransmitter(config), MimoReceiver(config)
    seeds = range(8)
    payload = np.stack([transmitter.random_payload(48, np.random.default_rng(s)) for s in seeds])
    bursts = transmitter.transmit(payload)
    outputs = [
        MimoChannel(IdealChannel(4), snr_db=10.0, rng=100 + seed).transmit(burst.samples)
        for seed, burst in zip(seeds, bursts)
    ]
    lts_starts = [burst.layout.sts_length for burst in bursts]
    truth = receiver.demodulate_stack([burst.samples for burst in bursts], 48, lts_starts)
    noisy = receiver.demodulate_stack([output.samples for output in outputs], 48, lts_starts)
    active = truth.estimate.active_mask
    error = (noisy.estimate.matrices - truth.estimate.matrices)[:, active]
    noise = np.array([output.noise_variance for output in outputs])
    lts = receiver.preamble.lts_frequency[active]
    variance = fft_size * noise[:, None] / (2 * np.abs(lts) ** 2)
    statistic = np.sum(2 * np.abs(error) ** 2 / variance[:, :, None, None])
    low, high = chi2.ppf([CHI2_ALPHA / 2, 1 - CHI2_ALPHA / 2], 2 * error.size)
    assert low < statistic < high
