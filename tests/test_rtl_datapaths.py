"""Tests for repro.rtl.tx_datapath and repro.rtl.rx_datapath."""

import numpy as np
import pytest

from repro.core.config import TransceiverConfig
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import SynchronizationError
from repro.rtl.rx_datapath import RxFrontEnd
from repro.rtl.tx_datapath import TxStreamDatapath


@pytest.fixture
def burst(paper_config):
    transmitter = MimoTransmitter(paper_config)
    return transmitter.transmit_random(200, rng=np.random.default_rng(42))


class TestTxStreamDatapath:
    def test_waveform_matches_functional_transmitter(self, paper_config, burst):
        datapath = TxStreamDatapath(paper_config)
        samples, report = datapath.stream(burst.coded_bits[0])
        functional = burst.samples[0, burst.layout.total_length :]
        np.testing.assert_allclose(samples, functional[: samples.size], atol=1e-9)
        assert report.ofdm_symbols == burst.n_ofdm_symbols

    def test_partial_block_not_emitted(self, paper_config):
        datapath = TxStreamDatapath(paper_config)
        samples, report = datapath.stream(np.zeros(100, dtype=np.uint8))
        assert samples.size == 0
        assert report.ofdm_symbols == 0
        assert datapath.interleaver_memory.write_fill == 100

    def test_cycle_accounting(self, paper_config):
        datapath = TxStreamDatapath(paper_config)
        coded = np.zeros(192, dtype=np.uint8)
        _, report = datapath.stream(coded)
        # One cycle per input bit plus one per output sample.
        assert report.cycles_consumed == 192 + 80
        assert report.samples_per_symbol == 80

    def test_reset(self, paper_config):
        datapath = TxStreamDatapath(paper_config)
        datapath.stream(np.zeros(10, dtype=np.uint8))
        datapath.reset()
        assert datapath.cycles == 0
        assert datapath.interleaver_memory.write_fill == 0

    def test_cp_memory_sized_for_double_buffering(self, paper_config):
        datapath = TxStreamDatapath(paper_config)
        assert datapath.cp_memory.depth == 2 * paper_config.fft_size

    def test_different_modulation(self):
        config = TransceiverConfig(modulation="qpsk")
        transmitter = MimoTransmitter(config)
        burst = transmitter.transmit_random(80, rng=np.random.default_rng(1))
        datapath = TxStreamDatapath(config)
        samples, _ = datapath.stream(burst.coded_bits[2])
        functional = burst.samples[2, burst.layout.total_length :]
        np.testing.assert_allclose(samples, functional[: samples.size], atol=1e-9)


    @pytest.mark.parametrize("fft_size", [128, 256, 512])
    def test_waveform_matches_functional_transmitter_at_larger_fft_sizes(self, fft_size):
        config = TransceiverConfig(fft_size=fft_size)
        burst = MimoTransmitter(config).transmit_random(400, rng=np.random.default_rng(fft_size))
        samples, report = TxStreamDatapath(config).stream(burst.coded_bits[1])
        functional = burst.samples[1, burst.layout.total_length :]
        assert samples.size == report.ofdm_symbols * config.samples_per_symbol > 0
        np.testing.assert_allclose(samples, functional[: samples.size], atol=1e-9)
        assert report.ofdm_symbols == burst.n_ofdm_symbols

    def test_cycle_accounting_at_512_points(self):
        config = TransceiverConfig(fft_size=512)
        _, report = TxStreamDatapath(config).stream(
            np.zeros(config.coded_bits_per_symbol, dtype=np.uint8)
        )
        assert report.cycles_consumed == config.coded_bits_per_symbol + 640


class TestRxFrontEnd:
    def test_sync_and_replay_match_direct_slicing(self, paper_config, burst):
        front_end = RxFrontEnd(paper_config)
        report = front_end.ingest(burst.samples)
        assert report.lts_start == burst.layout.sts_length
        replayed = front_end.replay_lts(report, burst.samples.shape[1])
        direct = burst.samples[:, report.lts_start : report.lts_start + replayed.shape[1]]
        np.testing.assert_allclose(replayed, direct, atol=1e-12)

    def test_buffer_depth_covers_preamble(self, paper_config):
        front_end = RxFrontEnd(paper_config, buffer_margin=64)
        assert front_end.buffers[0].depth == 800 + 64

    def test_shape_validation(self, paper_config):
        front_end = RxFrontEnd(paper_config)
        with pytest.raises(ValueError):
            front_end.ingest(np.zeros((2, 100), dtype=complex))

    def test_sync_failure_on_noise_only_stream(self, paper_config):
        front_end = RxFrontEnd(paper_config)
        rng = np.random.default_rng(3)
        noise = 1e-6 * (rng.normal(size=(4, 1000)) + 1j * rng.normal(size=(4, 1000)))
        # Noise always has *some* peak above zero, so the front end locks;
        # but replay must fail if the "LTS" has not been fully ingested.
        report = front_end.ingest(noise)
        with pytest.raises(ValueError):
            front_end.replay_lts(report, total_ingested=report.lts_start + 10)

    def test_replay_requires_enough_history(self, paper_config, burst):
        front_end = RxFrontEnd(paper_config, buffer_margin=0)
        # Ingest the burst twice so the circular buffer has wrapped well past
        # the first preamble; replaying the original position must fail.
        front_end.ingest(burst.samples)
        report = front_end.ingest(burst.samples)
        with pytest.raises(ValueError):
            front_end.replay_lts(report, total_ingested=2 * burst.samples.shape[1])
