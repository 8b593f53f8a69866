"""Tests for repro.sync.cfo — the preamble-based CFO estimator extension."""

import numpy as np
import pytest

from repro.channel.awgn import awgn_noise, noise_variance_for_snr, occupied_power
from repro.channel.impairments import ImpairmentSpec, apply_carrier_frequency_offset
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator
from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.dsp.fixedpoint import SAMPLE_FORMAT_16BIT
from repro.exceptions import SynchronizationError
from repro.sync.cfo import CfoEstimator, estimate_cfo_from_repetition

#: Largest |CFO| (cycles/sample) the 64-point LTS repetition resolves
#: unambiguously: half a cycle over one 64-sample period.
FINE_RANGE = 0.5 / 64


@pytest.fixture
def preamble_waveform():
    return PreambleGenerator(64).mimo_preamble(4)


class TestRepetitionEstimator:
    def test_zero_cfo(self, preamble_waveform):
        cfo = estimate_cfo_from_repetition(preamble_waveform[:1], period=16, start=16, n_periods=8)
        assert cfo == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("true_cfo", [-0.02, -0.005, 0.001, 0.01, 0.025])
    def test_recovers_applied_cfo_from_sts(self, preamble_waveform, true_cfo):
        shifted = apply_carrier_frequency_offset(preamble_waveform, true_cfo)
        measured = estimate_cfo_from_repetition(shifted[:1], period=16, start=16, n_periods=8)
        assert measured == pytest.approx(true_cfo, abs=1e-6)

    def test_multi_antenna_combining(self, preamble_waveform):
        shifted = apply_carrier_frequency_offset(preamble_waveform, 0.003)
        measured = estimate_cfo_from_repetition(shifted, period=64, start=192, n_periods=2)
        assert measured == pytest.approx(0.003, abs=1e-6)

    def test_bounds_checked(self, preamble_waveform):
        with pytest.raises(SynchronizationError):
            estimate_cfo_from_repetition(preamble_waveform[:1], period=64, start=700, n_periods=4)
        with pytest.raises(ValueError):
            estimate_cfo_from_repetition(preamble_waveform[:1], period=0, start=0, n_periods=2)
        with pytest.raises(ValueError):
            estimate_cfo_from_repetition(preamble_waveform[:1], period=16, start=0, n_periods=1)

    def test_zero_signal_returns_zero(self):
        assert estimate_cfo_from_repetition(np.zeros((1, 200), dtype=complex), 16, 0, 4) == 0.0


class TestCfoEstimator:
    @pytest.mark.parametrize("true_cfo", [1e-4, 1e-3, 5e-3, 1.5e-2])
    def test_combined_estimate_accuracy(self, preamble_waveform, true_cfo):
        estimator = CfoEstimator(64)
        shifted = apply_carrier_frequency_offset(preamble_waveform, true_cfo)
        estimate = estimator.estimate(shifted, lts_start=160)
        assert estimate.combined == pytest.approx(true_cfo, abs=1e-5)

    def test_accuracy_with_noise(self, preamble_waveform):
        estimator = CfoEstimator(64)
        shifted = apply_carrier_frequency_offset(preamble_waveform, 2e-3)
        noisy = shifted + awgn_noise(
            shifted.shape, noise_variance_for_snr(20.0, occupied_power(shifted)), rng=1
        )
        estimate = estimator.estimate(noisy, lts_start=160)
        assert estimate.combined == pytest.approx(2e-3, abs=2e-4)

    def test_correction_restores_waveform(self, preamble_waveform):
        estimator = CfoEstimator(64)
        shifted = apply_carrier_frequency_offset(preamble_waveform, 4e-3)
        estimate = estimator.estimate(shifted, lts_start=160)
        corrected = estimator.correct(shifted, estimate)
        np.testing.assert_allclose(corrected, preamble_waveform, atol=1e-6)

    def test_negative_offset_inverts_the_impairment(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(4, 100)) + 1j * rng.normal(size=(4, 100))
        shifted = apply_carrier_frequency_offset(samples, 0.007)
        np.testing.assert_allclose(
            apply_carrier_frequency_offset(shifted, -0.007), samples, atol=1e-12
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fine_ambiguity_boundary_unwrapped_by_coarse(self, preamble_waveform, sign):
        # At |CFO| = 1/(2*fft_size) the LTS repetition phase is exactly pi,
        # so the raw fine estimate can come back with either sign; the
        # coarse estimate must pick the right 1/fft_size multiple.
        estimator = CfoEstimator(64)
        true_cfo = sign * FINE_RANGE
        shifted = apply_carrier_frequency_offset(preamble_waveform, true_cfo)
        estimate = estimator.estimate(shifted, lts_start=160)
        assert abs(estimate.fine) <= FINE_RANGE + 1e-9
        assert estimate.combined == pytest.approx(true_cfo, abs=1e-5)

    def test_cfo_beyond_fine_range_recovered_by_unwrap(self, preamble_waveform):
        # 15 % past the fine ambiguity boundary: the fine estimate wraps to
        # the other side of zero and only the coarse unwrap recovers it.
        estimator = CfoEstimator(64)
        true_cfo = 1.15 * FINE_RANGE
        shifted = apply_carrier_frequency_offset(preamble_waveform, true_cfo)
        estimate = estimator.estimate(shifted, lts_start=160)
        assert estimate.fine != pytest.approx(true_cfo, abs=1e-4)
        assert estimate.combined == pytest.approx(true_cfo, abs=1e-5)

    @pytest.mark.parametrize("true_cfo", [-0.03, 0.03])
    def test_coarse_estimate_resolves_offsets_near_its_range_edge(
        self, preamble_waveform, true_cfo
    ):
        # The 16-sample STS period resolves |CFO| < 1/32 cycles/sample.
        shifted = apply_carrier_frequency_offset(preamble_waveform, true_cfo)
        assert CfoEstimator(64).coarse(shifted, sts_start=0) == pytest.approx(
            true_cfo, abs=1e-6
        )

    def test_coarse_estimate_aliases_past_its_range(self, preamble_waveform):
        # Past 1/32 cycles/sample the STS phase wraps: 0.035 reads as
        # 0.035 - 1/16.
        shifted = apply_carrier_frequency_offset(preamble_waveform, 0.035)
        assert CfoEstimator(64).coarse(shifted, sts_start=0) == pytest.approx(
            0.035 - 1 / 16, abs=1e-6
        )

    def test_sts_start_negative_falls_back_to_fine_only(self, preamble_waveform):
        # When the stream starts mid-STS (lts_start < STS length) the coarse
        # stage has nothing to correlate and must drop out as 0.0 instead of
        # reading before the start of the buffer.
        estimator = CfoEstimator(64)
        true_cfo = 3e-3
        shifted = apply_carrier_frequency_offset(preamble_waveform, true_cfo)
        truncated = shifted[:, 120:]  # LTS slot 0 now starts at sample 40.
        estimate = estimator.estimate(truncated, lts_start=40)
        assert estimate.coarse == 0.0
        assert estimate.combined == pytest.approx(true_cfo, abs=1e-5)


class TestReceiverIntegration:
    def test_large_cfo_breaks_uncorrected_link(self, link_burst):
        channel = MimoChannel(
            FlatRayleighChannel(rng=26),
            snr_db=35.0,
            impairment=ImpairmentSpec(cfo_normalized=5e-3),
            rng=27,
        )
        air, outcome = link_burst(TransceiverConfig(correct_cfo=False), channel, 200, rng=1)
        assert outcome.total_bit_errors(air.burst.info_bits) > 0.1 * air.burst.payload_bits

    def test_cfo_correction_repairs_the_link(self, link_burst):
        channel = MimoChannel(
            FlatRayleighChannel(rng=26),
            snr_db=35.0,
            impairment=ImpairmentSpec(cfo_normalized=5e-3),
            rng=27,
        )
        air, outcome = link_burst(TransceiverConfig(correct_cfo=True), channel, 200, rng=1)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_estimated_cfo_reported(self, link_burst):
        channel = MimoChannel(
            snr_db=35.0, impairment=ImpairmentSpec(cfo_normalized=3e-3), rng=28
        )
        air, outcome = link_burst(TransceiverConfig(correct_cfo=True), channel, 150, rng=2)
        assert outcome.estimated_cfo == pytest.approx(3e-3, abs=2e-4)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_burst_recovery_with_cfo_iq_and_quantization_together(self, link_burst):
        # The paper's front-end conditions combined: CFO, mixer IQ
        # imbalance and 16-bit DAC/ADC quantisation on a faded link.  The
        # CFO estimator runs on already-quantised samples and the link must
        # still decode cleanly at high SNR.
        channel = MimoChannel(
            FlatRayleighChannel(rng=26),
            snr_db=35.0,
            impairment=ImpairmentSpec(
                cfo_normalized=2e-3,
                iq_amplitude_db=0.2,
                iq_phase_deg=1.0,
                tx_format=SAMPLE_FORMAT_16BIT,
            ),
            rng=27,
        )
        config = TransceiverConfig(
            correct_cfo=True, rx_sample_format=SAMPLE_FORMAT_16BIT
        )
        air, outcome = link_burst(config, channel, 200, rng=1)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0
