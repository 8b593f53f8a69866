"""Tests for repro.mimo.detector."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import ConfigurationError, ReproError
from repro.mimo.channel_estimation import ChannelEstimate, invert_channel_stack
from repro.mimo.detector import MmseDetector, zf_detect


def _make_estimate(n_items=2, fft_size=16, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n_items, fft_size, 4, 4)
    matrices = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    inverses, _ = invert_channel_stack(matrices)
    mask = np.ones(fft_size, dtype=bool)
    return ChannelEstimate(matrices=matrices, inverses=inverses, active_mask=mask), rng


def _through(estimate, x):
    """``x`` ``(n_items, n_tx, n_symbols, fft_size)`` through the estimated channels."""
    return np.einsum("mkij,mjnk->mink", estimate.matrices, x)


def _symbols(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestZfDetect:
    def test_recovers_transmitted_vectors_noiselessly(self):
        estimate, rng = _make_estimate()
        x = _symbols(rng, (2, 4, 3, 16))
        recovered = zf_detect(_through(estimate, x), estimate.inverses)
        np.testing.assert_allclose(recovered, x, atol=1e-9)

    def test_shape_validation(self):
        estimate, _ = _make_estimate()
        with pytest.raises(ValueError):
            zf_detect(np.zeros((2, 4, 3, 8)), estimate.inverses)
        with pytest.raises(ValueError):
            zf_detect(np.zeros(16), estimate.inverses)


class TestMmseDetector:
    def test_reduces_to_zf_at_zero_noise(self):
        estimate, rng = _make_estimate(seed=3)
        x = _symbols(rng, (2, 4, 3, 16))
        mmse = MmseDetector(estimate, [0.0, 0.0])
        assert mmse.singular_subcarriers == [None, None]
        np.testing.assert_allclose(mmse.detect(_through(estimate, x)), x, atol=1e-8)

    def test_lower_mse_than_zf_at_low_snr(self):
        estimate, rng = _make_estimate(seed=4)
        noise_variance = 0.5
        x = (rng.integers(0, 2, size=(2, 4, 3, 16)) * 2 - 1).astype(complex)
        noise = np.sqrt(noise_variance / 2) * _symbols(rng, x.shape)
        y = _through(estimate, x) + noise
        zf_error = np.mean(np.abs(zf_detect(y, estimate.inverses) - x) ** 2)
        mmse_error = np.mean(
            np.abs(MmseDetector(estimate, [noise_variance] * 2).detect(y) - x) ** 2
        )
        assert mmse_error < zf_error

    def test_negative_noise_variance_rejected(self):
        estimate, _ = _make_estimate(seed=5)
        with pytest.raises(ValueError):
            MmseDetector(estimate, [0.1, -1.0])

    def test_one_noise_variance_per_burst(self):
        estimate, _ = _make_estimate(seed=5)
        for variances in (0.1, [0.1], [0.1, 0.1, 0.1]):
            with pytest.raises(ConfigurationError, match="does not pair"):
                MmseDetector(estimate, variances)
        with pytest.raises(ConfigurationError, match="does not pair"):
            MmseDetector(estimate[0], [0.1])

    def test_shape_validation(self):
        estimate, _ = _make_estimate(seed=6)
        detector = MmseDetector(estimate, [0.1, 0.1])
        with pytest.raises(ValueError):
            detector.detect(np.zeros((2, 4, 3, 8)))

    def test_singular_gram_flags_its_burst(self):
        # Regression: with noise_variance == 0 a rank-deficient channel
        # estimate makes the Gram matrix exactly singular; the raw
        # LinAlgError used to escape and kill a whole pooled sweep batch.
        # Now only that burst is flagged, its weights left zero.
        estimate, rng = _make_estimate(seed=10)
        estimate.matrices[1, 6:] = np.eye(4)
        estimate.matrices[1, 6:, :, 3] = estimate.matrices[1, 6:, :, 2]  # two identical columns
        detector = MmseDetector(estimate, [0.0, 0.0])
        assert detector.singular_subcarriers == [None, 6]
        assert not detector._weights[1].any()
        y = _symbols(rng, (2, 4, 3, 16))
        np.testing.assert_array_equal(
            detector.detect(y)[0], MmseDetector(estimate[[0]], [0.0]).detect(y[:1])[0]
        )
        assert not detector.detect(y)[1].any()


class TestBatchedDetection:
    """A stack of bursts detects exactly as each burst and each symbol alone."""

    def test_zf_batched_equals_per_symbol(self):
        estimate, rng = _make_estimate(seed=7)
        block = _symbols(rng, (2, 4, 6, 16))
        batched = zf_detect(block, estimate.inverses)
        assert batched.shape == (2, 4, 6, 16)
        for m in range(2):
            for n in range(6):
                np.testing.assert_array_equal(
                    batched[m : m + 1, :, n : n + 1],
                    zf_detect(block[m : m + 1, :, n : n + 1], estimate.inverses[m : m + 1]),
                )

    def test_mmse_batched_equals_per_symbol(self):
        estimate, rng = _make_estimate(seed=8)
        detector = MmseDetector(estimate, [0.2, 0.3])
        block = _symbols(rng, (2, 4, 5, 16))
        batched = detector.detect(block)
        assert batched.shape == (2, 4, 5, 16)
        for n in range(5):
            np.testing.assert_array_equal(
                batched[:, :, n : n + 1], detector.detect(block[:, :, n : n + 1])
            )
        for m in range(2):
            alone = MmseDetector(estimate[[m]], [(0.2, 0.3)[m]])
            np.testing.assert_array_equal(batched[m], alone.detect(block[m : m + 1])[0])

    def test_bad_rank_rejected(self):
        estimate, _ = _make_estimate(seed=9)
        with pytest.raises(ValueError):
            zf_detect(np.zeros((2, 3, 4, 6, 16)), estimate.inverses)
        with pytest.raises(ValueError):
            zf_detect(np.zeros((4, 6, 16)), estimate.inverses)
        with pytest.raises(ValueError):
            zf_detect(np.zeros((2, 4, 6, 16)), estimate.inverses[0])


def _shapes(min_rank, max_rank):
    """Array shapes of a random rank with small axes, so axes often agree."""
    return st.lists(st.integers(1, 3), min_size=min_rank, max_size=max_rank).map(tuple)


def _documented_shape(received, weights):
    """``received`` with ``n_out`` for ``n_rx``, or None for a malformed pair.

    The detectors take a stack ``(n_items, n_rx, n_symbols, fft_size)``
    with one weight set per burst, ``(n_items, fft_size, n_out, n_rx)``.
    """
    if (len(weights), len(received)) != (4, 4):
        return None
    if received[0] != weights[0]:
        return None
    if (received[3], received[1]) != (weights[1], weights[3]):
        return None
    return (received[0], weights[2]) + received[2:]


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
    @given(received=_shapes(1, 5), inverses=_shapes(4, 4))
    @example(received=(4, 6, 64), inverses=(64, 4, 4))
    @example(received=(2, 4, 6, 64), inverses=(64, 4, 4))
    @example(received=(2, 4, 6, 64), inverses=(2, 64, 4, 4))
    @example(received=(2, 4, 6, 64), inverses=(2, 64, 2, 4))
    @example(received=(2, 4, 6, 64), inverses=(3, 64, 4, 4))
    def test_zf_detect(self, received, inverses):
        _assert_documented_shape_or_typed_error(
            lambda y: zf_detect(y, np.ones(inverses, dtype=np.complex128)),
            received,
            inverses,
        )

    @settings(max_examples=200, deadline=None)
    @given(received=_shapes(1, 5), weights=_shapes(4, 4))
    @example(received=(4, 6, 64), weights=(1, 64, 4, 4))
    @example(received=(2, 4, 6, 64), weights=(2, 64, 4, 4))
    @example(received=(2, 3, 6, 64), weights=(2, 64, 4, 4))
    @example(received=(2, 4, 6, 64), weights=(3, 64, 4, 4))
    def test_mmse_detect(self, received, weights):
        # MMSE weights (n_items, fft_size, n_tx, n_rx) come from an estimate
        # of matrices (n_items, fft_size, n_rx, n_tx).
        n_items, fft_size, n_tx, n_rx = weights
        matrices = np.ones((n_items, fft_size, n_rx, n_tx), dtype=np.complex128)
        estimate = ChannelEstimate(
            matrices=matrices,
            inverses=np.zeros_like(matrices),
            active_mask=np.ones(fft_size, dtype=bool),
        )
        detector = MmseDetector(estimate, np.ones(n_items))
        _assert_documented_shape_or_typed_error(detector.detect, received, weights)


def _detector(kind, weights_shape):
    """A ``detect(received)`` of ``kind`` whose weights are ``weights_shape``.

    ZF takes the inverses as given; MMSE derives its weights ``(n_items,
    fft_size, n_tx, n_rx)`` from an estimate of matrices ``(n_items,
    fft_size, n_rx, n_tx)`` and one noise variance per burst, so a weights
    shape of any other rank already fails to build the detector.
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

    def detect(received):
        return MmseDetector(estimate, np.full(lead, 0.1)).detect(received)

    return detect


#: (received shape, weights shape, the part of the message naming the fault)
MALFORMED_PAIRS = {
    "rank-1-received": ((16,), (2, 16, 4, 4), "does not pair"),
    "rank-5-received": ((2, 4, 6, 16, 1), (2, 16, 4, 4), "does not pair"),
    "stack-on-one-estimate": ((2, 4, 6, 16), (16, 4, 4), "does not pair"),
    "burst-on-stacked-estimate": ((4, 6, 16), (2, 16, 4, 4), "does not pair"),
    "symbol-on-stacked-estimate": ((4, 16), (2, 16, 4, 4), "does not pair"),
    "stack-count": ((3, 4, 6, 16), (2, 16, 4, 4), "stack axis"),
    "fft-symbol": ((4, 8), (16, 4, 4), "does not pair"),
    "fft-burst": ((4, 6, 8), (16, 4, 4), "does not pair"),
    "fft-stack": ((2, 4, 6, 8), (2, 16, 4, 4), "FFT axis"),
    "transposed-burst": ((4, 16, 6), (16, 4, 4), "does not pair"),
    "transposed-stack": ((2, 4, 16, 6), (2, 16, 4, 4), "FFT axis"),
    "antenna-symbol": ((3, 16), (16, 4, 4), "does not pair"),
    "antenna-burst": ((3, 6, 16), (16, 4, 4), "does not pair"),
    "antenna-stack": ((2, 3, 6, 16), (2, 16, 4, 4), "antenna axis"),
    "antenna-non-square": ((2, 4, 6, 16), (2, 16, 2, 3), "antenna axis"),
    "one-symbol-form": ((4, 16), (16, 4, 4), "does not pair"),
    "one-burst-form": ((4, 6, 16), (16, 4, 4), "does not pair"),
}

#: (received shape, weights shape, documented output shape)
WELL_FORMED_PAIRS = {
    "one-symbol-stack": ((2, 4, 1, 16), (2, 16, 4, 4), (2, 4, 1, 16)),
    "stack": ((2, 4, 6, 16), (2, 16, 4, 4), (2, 4, 6, 16)),
    "non-square": ((2, 3, 6, 16), (2, 16, 2, 3), (2, 2, 6, 16)),
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
