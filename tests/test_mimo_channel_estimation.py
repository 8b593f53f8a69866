"""Tests for repro.mimo.channel_estimation."""

import numpy as np
import pytest

from repro.dsp.cordic import Cordic
from repro.exceptions import ChannelEstimationError, ConfigurationError
from repro.mimo.channel_estimation import (
    ChannelEstimator,
    estimate_channel_from_lts,
    invert_channel_stack,
)


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
        (estimate,) = estimator.estimate(_received_from_channel(true_channel, lts)[None])
        assert estimate.fft_size == 64
        assert estimate.n_rx == 4 and estimate.n_tx == 4
        assert estimate.estimation_error(true_channel) < 1e-12
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
        (estimate,) = ChannelEstimator(lts).estimate(received[None])
        error = estimate.estimation_error(true_channel)
        assert 0 < error < 0.05

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            ChannelEstimator(np.array([]))

    def test_estimation_error_shape_check(self):
        lts = _reference_lts()
        estimator = ChannelEstimator(lts)
        # Identity channel: every receive antenna hears its own transmitter.
        identity_channel = np.broadcast_to(np.eye(4, dtype=complex), (64, 4, 4)).copy()
        (estimate,) = estimator.estimate(_received_from_channel(identity_channel, lts)[None])
        with pytest.raises(ValueError):
            estimate.estimation_error(np.zeros((32, 4, 4)))

    def test_singular_channel_gets_its_slot(self):
        lts = _reference_lts()
        estimator = ChannelEstimator(lts)
        (outcome,) = estimator.estimate(np.zeros((1, 4, 4, 64), dtype=complex))
        assert isinstance(outcome, ChannelEstimationError)

    @pytest.mark.parametrize("shape", [(4, 4, 64), (1, 1, 4, 4, 64)])
    def test_anything_but_a_stack_is_rejected(self, shape):
        estimator = ChannelEstimator(_reference_lts())
        with pytest.raises(ConfigurationError, match="n_items, n_tx, n_rx, fft_size"):
            estimator.estimate(np.zeros(shape, dtype=complex))
