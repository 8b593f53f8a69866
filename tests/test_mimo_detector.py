"""Tests for repro.mimo.detector."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import ConfigurationError, DecodingError, ReproError
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


def _shapes(min_rank, max_rank):
    """Array shapes of a random rank with small axes, so axes often agree."""
    return st.lists(st.integers(1, 3), min_size=min_rank, max_size=max_rank).map(tuple)


def _documented_shape(received, weights):
    """``received`` with ``n_out`` for ``n_rx``, or None for a malformed pair.

    The detectors take ``(n_rx, fft_size)`` or ``(n_rx, n_symbols,
    fft_size)`` with weights ``(fft_size, n_out, n_rx)``, and a stack
    ``(n_items, n_rx, n_symbols, fft_size)`` with ``(n_items, fft_size,
    n_out, n_rx)``.
    """
    if (len(weights), len(received)) not in ((3, 2), (3, 3), (4, 4)):
        return None
    rx_axis = len(weights) - 3
    if received[:rx_axis] != weights[:rx_axis]:
        return None
    if (received[-1], received[rx_axis]) != (weights[-3], weights[-1]):
        return None
    return received[:rx_axis] + (weights[-2],) + received[rx_axis + 1:]


def _assert_documented_shape_or_typed_error(detect, received, weights):
    expected = _documented_shape(received, weights)
    try:
        output = detect(np.ones(received, dtype=np.complex128))
    except ConfigurationError:
        assert expected is None, f"well-formed {received} x {weights} was rejected"
        return
    assert expected is not None, f"malformed {received} x {weights} was accepted"
    assert output.shape == expected


class TestDetectorShapeCheck:
    """Both detectors return the documented shape or raise ConfigurationError.

    Random ranks and axis sizes of the received block and the weights
    must never reach numpy as a stray broadcast or ``einsum`` error.
    """

    @settings(max_examples=200, deadline=None)
    @given(received=_shapes(1, 5), inverses=_shapes(1, 5))
    @example(received=(4, 6, 64), inverses=(64, 4, 4))
    @example(received=(4, 6, 64), inverses=(64, 4, 2))
    @example(received=(2, 4, 6, 64), inverses=(64, 4, 4))
    @example(received=(2, 4, 6, 64), inverses=(3, 64, 4, 4))
    def test_zf_detect(self, received, inverses):
        _assert_documented_shape_or_typed_error(
            lambda y: zf_detect(y, np.ones(inverses, dtype=np.complex128)),
            received,
            inverses,
        )

    @settings(max_examples=200, deadline=None)
    @given(received=_shapes(1, 5), weights=_shapes(3, 4))
    @example(received=(4, 6, 64), weights=(64, 4, 4))
    @example(received=(3, 6, 64), weights=(64, 4, 4))
    @example(received=(2, 4, 6, 64), weights=(64, 4, 4))
    @example(received=(2, 4, 6, 64), weights=(3, 64, 4, 4))
    def test_mmse_detect(self, received, weights):
        # MMSE weights (..., fft_size, n_tx, n_rx) come from an estimate of
        # matrices (..., fft_size, n_rx, n_tx).
        *lead, fft_size, n_tx, n_rx = weights
        matrices = np.ones((*lead, fft_size, n_rx, n_tx), dtype=np.complex128)
        estimate = ChannelEstimate(
            matrices=matrices,
            inverses=np.zeros_like(matrices),
            active_mask=np.ones(fft_size, dtype=bool),
        )
        detector = MmseDetector(estimate, noise_variance=1.0)
        _assert_documented_shape_or_typed_error(detector.detect, received, weights)


def _detector(kind, weights_shape):
    """A ``detect(received)`` of ``kind`` whose weights are ``weights_shape``.

    ZF takes the inverses as given; MMSE derives its weights
    ``(..., fft_size, n_tx, n_rx)`` from an estimate of matrices
    ``(..., fft_size, n_rx, n_tx)``.
    """
    rng = np.random.default_rng(11)
    *lead, fft_size, n_out, n_rx = weights_shape
    if kind == "zf":
        inverses = rng.normal(size=weights_shape) + 1j * rng.normal(size=weights_shape)
        return lambda received: zf_detect(received, inverses)
    shape = (*lead, fft_size, n_rx, n_out)
    matrices = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    estimate = ChannelEstimate(
        matrices=matrices,
        inverses=np.zeros_like(matrices),
        active_mask=np.ones(fft_size, dtype=bool),
    )
    return MmseDetector(estimate, noise_variance=0.1).detect


#: (received shape, weights shape, the part of the message naming the fault)
MALFORMED_PAIRS = {
    "rank-1-received": ((16,), (16, 4, 4), "does not pair"),
    "rank-5-received": ((2, 4, 6, 16, 1), (2, 16, 4, 4), "does not pair"),
    "stack-on-one-estimate": ((2, 4, 6, 16), (16, 4, 4), "does not pair"),
    "burst-on-stacked-estimate": ((4, 6, 16), (2, 16, 4, 4), "does not pair"),
    "symbol-on-stacked-estimate": ((4, 16), (2, 16, 4, 4), "does not pair"),
    "stack-count": ((3, 4, 6, 16), (2, 16, 4, 4), "stack axis"),
    "fft-symbol": ((4, 8), (16, 4, 4), "FFT axis"),
    "fft-burst": ((4, 6, 8), (16, 4, 4), "FFT axis"),
    "fft-stack": ((2, 4, 6, 8), (2, 16, 4, 4), "FFT axis"),
    "transposed-burst": ((4, 16, 6), (16, 4, 4), "FFT axis"),
    "antenna-symbol": ((3, 16), (16, 4, 4), "antenna axis"),
    "antenna-burst": ((3, 6, 16), (16, 4, 4), "antenna axis"),
    "antenna-stack": ((2, 3, 6, 16), (2, 16, 4, 4), "antenna axis"),
    "antenna-non-square": ((4, 6, 16), (16, 2, 3), "antenna axis"),
}

#: (received shape, weights shape, documented output shape)
WELL_FORMED_PAIRS = {
    "symbol": ((4, 16), (16, 4, 4), (4, 16)),
    "burst": ((4, 6, 16), (16, 4, 4), (4, 6, 16)),
    "stack": ((2, 4, 6, 16), (2, 16, 4, 4), (2, 4, 6, 16)),
    "non-square": ((3, 6, 16), (16, 2, 3), (2, 6, 16)),
}


class TestDetectorShapeTable:
    """Each malformed detector input named in the shape check, for both detectors.

    The hypothesis test above covers random shapes; this table pins every
    fault class to its message, and that the error is both a
    ``ReproError`` and a ``ValueError`` for callers guarding with either.
    """

    @pytest.mark.parametrize("kind", ["zf", "mmse"])
    @pytest.mark.parametrize(
        "received, weights, message",
        list(MALFORMED_PAIRS.values()),
        ids=list(MALFORMED_PAIRS),
    )
    def test_malformed_input_raises_configuration_error(
        self, kind, received, weights, message
    ):
        detect = _detector(kind, weights)
        with pytest.raises(ConfigurationError, match=message) as excinfo:
            detect(np.zeros(received, dtype=np.complex128))
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize("kind", ["zf", "mmse"])
    @pytest.mark.parametrize(
        "received, weights, expected",
        list(WELL_FORMED_PAIRS.values()),
        ids=list(WELL_FORMED_PAIRS),
    )
    def test_well_formed_input_returns_the_documented_shape(
        self, kind, received, weights, expected
    ):
        output = _detector(kind, weights)(np.ones(received, dtype=np.complex128))
        assert output.shape == expected
        assert output.dtype == np.complex128
