"""Tests for repro.mimo.detector."""

import numpy as np
import pytest

from repro.exceptions import DecodingError
from repro.mimo.channel_estimation import ChannelEstimate, invert_channel_stack
from repro.mimo.detector import MmseDetector, zf_detect


def _make_estimate(fft_size=16, seed=0):
    rng = np.random.default_rng(seed)
    matrices = rng.normal(size=(fft_size, 4, 4)) + 1j * rng.normal(size=(fft_size, 4, 4))
    inverses, _ = invert_channel_stack(matrices)
    mask = np.ones(fft_size, dtype=bool)
    return ChannelEstimate(matrices=matrices, inverses=inverses, active_mask=mask), rng


class TestZfDetect:
    def test_recovers_transmitted_vectors_noiselessly(self):
        estimate, rng = _make_estimate()
        x = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        y = np.einsum("kij,jk->ik", estimate.matrices, x)
        recovered = zf_detect(y, estimate.inverses)
        np.testing.assert_allclose(recovered, x, atol=1e-9)

    def test_shape_validation(self):
        estimate, _ = _make_estimate()
        with pytest.raises(ValueError):
            zf_detect(np.zeros((4, 8)), estimate.inverses)
        with pytest.raises(ValueError):
            zf_detect(np.zeros(16), estimate.inverses)


class TestMmseDetector:
    def test_reduces_to_zf_at_zero_noise(self):
        estimate, rng = _make_estimate(seed=3)
        x = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        y = np.einsum("kij,jk->ik", estimate.matrices, x)
        mmse = MmseDetector(estimate, noise_variance=0.0)
        np.testing.assert_allclose(mmse.detect(y), x, atol=1e-8)

    def test_lower_mse_than_zf_at_low_snr(self):
        estimate, rng = _make_estimate(seed=4)
        noise_variance = 0.5
        x = (rng.integers(0, 2, size=(4, 16)) * 2 - 1).astype(complex)
        noise = np.sqrt(noise_variance / 2) * (
            rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        )
        y = np.einsum("kij,jk->ik", estimate.matrices, x) + noise
        zf_error = np.mean(np.abs(zf_detect(y, estimate.inverses) - x) ** 2)
        mmse_error = np.mean(
            np.abs(MmseDetector(estimate, noise_variance).detect(y) - x) ** 2
        )
        assert mmse_error < zf_error

    def test_negative_noise_variance_rejected(self):
        estimate, _ = _make_estimate(seed=5)
        with pytest.raises(ValueError):
            MmseDetector(estimate, noise_variance=-1.0)

    def test_shape_validation(self):
        estimate, _ = _make_estimate(seed=6)
        detector = MmseDetector(estimate, noise_variance=0.1)
        with pytest.raises(ValueError):
            detector.detect(np.zeros((4, 8)))

    def test_singular_gram_raises_decoding_error(self):
        # Regression: with noise_variance == 0 a rank-deficient channel
        # estimate makes the Gram matrix exactly singular; the raw
        # LinAlgError used to escape and kill a whole pooled sweep batch.
        matrices = np.zeros((8, 4, 4), dtype=np.complex128)
        matrices[:] = np.eye(4)
        matrices[:, :, 3] = matrices[:, :, 2]  # two identical columns
        estimate = ChannelEstimate(
            matrices=matrices,
            inverses=np.zeros_like(matrices),
            active_mask=np.ones(8, dtype=bool),
        )
        with pytest.raises(DecodingError):
            MmseDetector(estimate, noise_variance=0.0)


class TestBatchedDetection:
    """Whole-burst (n_rx, n_symbols, fft_size) detection agrees with per-symbol calls."""

    def test_zf_batched_equals_per_symbol(self):
        estimate, rng = _make_estimate(seed=7)
        block = rng.normal(size=(4, 6, 16)) + 1j * rng.normal(size=(4, 6, 16))
        batched = zf_detect(block, estimate.inverses)
        assert batched.shape == (4, 6, 16)
        for n in range(6):
            np.testing.assert_array_equal(
                batched[:, n], zf_detect(block[:, n], estimate.inverses)
            )

    def test_mmse_batched_equals_per_symbol(self):
        estimate, rng = _make_estimate(seed=8)
        detector = MmseDetector(estimate, noise_variance=0.2)
        block = rng.normal(size=(4, 5, 16)) + 1j * rng.normal(size=(4, 5, 16))
        batched = detector.detect(block)
        assert batched.shape == (4, 5, 16)
        for n in range(5):
            np.testing.assert_array_equal(batched[:, n], detector.detect(block[:, n]))

    def test_bad_rank_rejected(self):
        estimate, _ = _make_estimate(seed=9)
        with pytest.raises(ValueError):
            zf_detect(np.zeros((2, 3, 4, 16)), estimate.inverses)
        with pytest.raises(ValueError):
            zf_detect(np.zeros((4, 6, 8)), estimate.inverses)
