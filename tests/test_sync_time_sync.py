"""Tests for repro.sync.time_sync."""

import numpy as np
import pytest

from repro.channel.awgn import add_awgn
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError, SynchronizationError
from repro.sim.engine import air_burst
from repro.sim.spec import CHANNEL_MODELS, ImpairmentSpec
from repro.sync.time_sync import TimeSynchronizer
from reference.core import normalized_metric_serial, synchronize_serial


@pytest.fixture
def preamble() -> PreambleGenerator:
    return PreambleGenerator(64)


def _synchronizer(preamble) -> TimeSynchronizer:
    return TimeSynchronizer(sts_time=preamble.sts_time(), lts_time=preamble.lts_time())


def _clean_burst(preamble, delay=0, n_data=200, rng_seed=0):
    """Antenna-0 style waveform: STS then LTS then random data, with delay."""
    rng = np.random.default_rng(rng_seed)
    data = 0.2 * (rng.normal(size=n_data) + 1j * rng.normal(size=n_data))
    burst = np.concatenate([preamble.sts_time(), preamble.lts_time(), data])
    return np.concatenate([np.zeros(delay, dtype=complex), burst])


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
        streams = np.stack([burst, 0.5 * burst, np.roll(burst, 3)])
        metric = _synchronizer(preamble).metric(streams)
        assert metric.shape == (3, burst.size - 32 + 1)

    def test_one_dimensional_stream_is_one_antenna(self, preamble):
        burst = _clean_burst(preamble, delay=5)
        sync = _synchronizer(preamble)
        np.testing.assert_array_equal(sync.metric(burst), sync.metric(burst[None, :]))

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
        for short in (np.zeros(10, dtype=complex), np.zeros((4, 31), dtype=complex)):
            with pytest.raises(SynchronizationError):
                sync.metric(short)
            with pytest.raises(SynchronizationError):
                sync.locate(short)

    @pytest.mark.parametrize("shape", [(), (2, 3, 40), (0, 40)])
    def test_other_ranks_rejected(self, preamble, shape):
        with pytest.raises(ConfigurationError):
            _synchronizer(preamble).metric(np.zeros(shape, dtype=complex))


class TestLocate:
    def test_exact_position_no_delay(self, preamble):
        assert _synchronizer(preamble).locate(_clean_burst(preamble)) == 160

    @pytest.mark.parametrize("delay", [1, 13, 77, 200])
    def test_exact_position_with_delay(self, preamble, delay):
        sync = _synchronizer(preamble)
        assert sync.locate(_clean_burst(preamble, delay=delay)) == 160 + delay

    def test_detection_with_noise(self, preamble):
        noisy = add_awgn(_clean_burst(preamble, delay=50), snr_db=15.0, rng=1)
        assert abs(_synchronizer(preamble).locate(noisy) - (160 + 50)) <= 1

    def test_detection_with_complex_channel_gain(self, preamble):
        gain = 0.3 * np.exp(1j * 1.1)
        assert _synchronizer(preamble).locate(gain * _clean_burst(preamble, delay=20)) == 180

    def test_strongest_antenna_wins(self, preamble):
        # Antenna 1 hears a cleaner copy of a differently delayed burst.
        sync = _synchronizer(preamble)
        noisy = add_awgn(_clean_burst(preamble, delay=0, n_data=260), snr_db=0.0, rng=2)
        clean = _clean_burst(preamble, delay=60)
        assert sync.locate(np.stack([noisy, clean])) == 160 + 60

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
        waveform = preamble.mimo_preamble(4)[0]
        assert _synchronizer(preamble).locate(waveform) == preamble.layout(4).lts_slot_start(0)


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
                air = air_burst(
                    transmitter, seed, channel, snr_db, ImpairmentSpec(sample_delay=delay), 48
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
