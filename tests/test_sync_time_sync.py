"""Tests for repro.sync.time_sync."""

import numpy as np
import pytest

from repro.channel.awgn import awgn_noise, noise_variance_for_snr, occupied_power
from repro.channel.impairments import ImpairmentSpec
from repro.channel.model import CHANNEL_MODELS
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import AirCell, air_round
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError, SynchronizationError
from repro.sync.time_sync import TimeSynchronizer
from reference.core import normalized_metric_serial, synchronize_serial


@pytest.fixture
def preamble() -> PreambleGenerator:
    return PreambleGenerator(64)


def _synchronizer(preamble) -> TimeSynchronizer:
    return TimeSynchronizer(sts_time=preamble.sts_time(), lts_time=preamble.lts_time())


def _clean_burst(preamble, delay=0, n_data=200, rng_seed=0):
    """Antenna-0 style waveform, one antenna: STS then LTS then random data,
    with delay."""
    rng = np.random.default_rng(rng_seed)
    data = 0.2 * (rng.normal(size=n_data) + 1j * rng.normal(size=n_data))
    burst = np.concatenate([np.zeros(delay), preamble.sts_time(), preamble.lts_time(), data])
    return burst[None]


class TestConstruction:
    def test_window_length_is_32(self, preamble):
        sync = _synchronizer(preamble)
        assert sync.window_length == 32
        assert sync.window_sts == 16

    def test_preamble_shorter_than_window_rejected(self, preamble):
        with pytest.raises(ConfigurationError):
            TimeSynchronizer(sts_time=preamble.sts_time()[:8], lts_time=preamble.lts_time())


class TestMetric:
    def test_one_row_per_antenna_one_value_per_window(self, preamble):
        burst = _clean_burst(preamble)
        streams = np.concatenate([burst, 0.5 * burst, np.roll(burst, 3, axis=1)])
        metric = _synchronizer(preamble).metric(streams)
        assert metric.shape == (3, burst.size - 32 + 1)

    def test_clean_transition_scores_one(self, preamble):
        metric = _synchronizer(preamble).metric(_clean_burst(preamble))
        assert metric.max() == pytest.approx(1.0, abs=1e-9)

    def test_rows_match_the_serial_metric_bit_exactly(self, preamble):
        sync = _synchronizer(preamble)
        rng = np.random.default_rng(4)
        streams = rng.normal(size=(4, 400)) + 1j * rng.normal(size=(4, 400))
        streams[1, 100] = np.nan
        streams[2, :200] = 0.0
        metric = sync.metric(streams)
        for antenna in range(4):
            np.testing.assert_array_equal(
                metric[antenna], normalized_metric_serial(sync.reference, streams[antenna])
            )

    def test_stream_shorter_than_window_rejected(self, preamble):
        sync = _synchronizer(preamble)
        for short in (np.zeros((1, 10), dtype=complex), np.zeros((4, 31), dtype=complex)):
            with pytest.raises(SynchronizationError):
                sync.metric(short)
            with pytest.raises(SynchronizationError):
                sync.locate(short)

    @pytest.mark.parametrize("shape", [(), (2, 3, 40), (0, 40)])
    def test_other_ranks_rejected(self, preamble, shape):
        with pytest.raises(ConfigurationError):
            _synchronizer(preamble).metric(np.zeros(shape, dtype=complex))


class TestCorrelatorWindow:
    """The sliding 32-sample correlator window of Fig. 4."""

    def test_reference_is_the_conjugated_sts_tail_and_lts_head(self, preamble):
        expected = np.concatenate([preamble.sts_time()[-16:], preamble.lts_time()[:16]])
        np.testing.assert_array_equal(_synchronizer(preamble).reference, np.conj(expected))

    @pytest.mark.parametrize("n_samples", [32, 33, 64, 401])
    def test_no_window_before_the_window_is_full(self, preamble, n_samples):
        streams = np.ones((2, n_samples), dtype=complex)
        assert _synchronizer(preamble).metric(streams).shape == (2, n_samples - 31)

    @pytest.mark.parametrize("chunk", [32, 45, 100, 256])
    def test_overlapping_chunks_match_the_whole_stream(self, preamble, chunk):
        # A streaming receiver sees the samples in chunks; carrying the last
        # 31 samples over reproduces the whole-stream metric bit for bit.
        sync = _synchronizer(preamble)
        rng = np.random.default_rng(chunk)
        streams = rng.normal(size=(2, 600)) + 1j * rng.normal(size=(2, 600))
        parts = [
            sync.metric(streams[:, start : start + chunk + 31])
            for start in range(0, 600 - 31, chunk)
        ]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), sync.metric(streams))

    @pytest.mark.parametrize("gain", [0.01, 3.0, 0.5 * np.exp(2j)])
    def test_metric_ignores_the_channel_gain(self, preamble, gain):
        sync = _synchronizer(preamble)
        burst = _clean_burst(preamble, delay=30)
        np.testing.assert_allclose(sync.metric(gain * burst), sync.metric(burst), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_metric_is_bounded_by_one(self, preamble, seed):
        # Cauchy-Schwarz: no window correlates better than the reference itself.
        rng = np.random.default_rng(seed)
        streams = rng.normal(size=(4, 500)) + 1j * rng.normal(size=(4, 500))
        metric = _synchronizer(preamble).metric(streams)
        assert np.all(metric >= 0.0)
        assert np.all(metric <= 1.0 + 1e-12)

    def test_silent_windows_score_zero(self, preamble):
        burst = _clean_burst(preamble, delay=100)
        metric = _synchronizer(preamble).metric(burst)
        np.testing.assert_array_equal(metric[0, : 100 - 31], 0.0)
        assert metric[0, 100 - 31 + 1] > 0.0

    def test_noise_alone_never_looks_like_a_transition(self, preamble):
        rng = np.random.default_rng(8)
        noise = rng.normal(size=(4, 2000)) + 1j * rng.normal(size=(4, 2000))
        assert _synchronizer(preamble).metric(noise).max() < 0.8


class TestLocate:
    def test_exact_position_no_delay(self, preamble):
        assert _synchronizer(preamble).locate(_clean_burst(preamble)) == 160

    @pytest.mark.parametrize("delay", [1, 13, 77, 200])
    def test_exact_position_with_delay(self, preamble, delay):
        sync = _synchronizer(preamble)
        assert sync.locate(_clean_burst(preamble, delay=delay)) == 160 + delay

    def test_detection_with_noise(self, preamble):
        burst = _clean_burst(preamble, delay=50)
        noisy = burst + awgn_noise(
            burst.shape, noise_variance_for_snr(15.0, occupied_power(burst)), rng=1
        )
        assert abs(_synchronizer(preamble).locate(noisy) - (160 + 50)) <= 1

    def test_detection_with_complex_channel_gain(self, preamble):
        gain = 0.3 * np.exp(1j * 1.1)
        assert _synchronizer(preamble).locate(gain * _clean_burst(preamble, delay=20)) == 180

    def test_strongest_antenna_wins(self, preamble):
        # Antenna 1 hears a cleaner copy of a differently delayed burst.
        sync = _synchronizer(preamble)
        burst = _clean_burst(preamble, delay=0, n_data=260)
        noisy = burst + awgn_noise(
            burst.shape, noise_variance_for_snr(0.0, occupied_power(burst)), rng=2
        )
        clean = _clean_burst(preamble, delay=60)
        assert sync.locate(np.concatenate([noisy, clean])) == 160 + 60

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_no_lock_on_silent_or_corrupted_streams(self, preamble, fill):
        streams = np.full((4, 400), fill, dtype=complex)
        with pytest.raises(SynchronizationError):
            _synchronizer(preamble).locate(streams)


class TestMimoPreambleDetection:
    def test_detection_on_full_mimo_preamble(self, preamble):
        # Antenna 0 carries STS followed immediately by its own LTS slot, so
        # the detector locks on the slot-0 boundary even in the 4-antenna
        # staggered preamble.
        waveform = preamble.mimo_preamble(4)[:1]
        assert _synchronizer(preamble).locate(waveform) == preamble.sts_time().size


class TestSerialOracle:
    """``locate`` equals the per-antenna peak search it replaced."""

    @pytest.mark.parametrize("channel", CHANNEL_MODELS)
    @pytest.mark.parametrize("n_antennas", [1, 2, 4])
    def test_locate_matches_the_per_antenna_search(self, n_antennas, channel):
        config = TransceiverConfig(n_antennas=n_antennas)
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        for snr_db in (-5.0, 0.0, 10.0, 20.0, 30.0):
            for delay in (0, 7, 50):
                seed = np.random.SeedSequence(
                    [n_antennas, CHANNEL_MODELS.index(channel), int(snr_db) + 5, delay]
                )
                (air,) = air_round(
                    transmitter,
                    [AirCell(seed, channel, snr_db, ImpairmentSpec(sample_delay=delay))],
                    48,
                )
                assert receiver.synchronizer.locate(air.samples) == synchronize_serial(
                    receiver, air.samples
                )

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_both_raise_on_silent_and_nan_streams(self, fill):
        receiver = MimoReceiver()
        streams = np.full((4, 500), fill, dtype=complex)
        with pytest.raises(SynchronizationError):
            receiver.synchronize(streams)
        with pytest.raises(SynchronizationError):
            synchronize_serial(receiver, streams)
