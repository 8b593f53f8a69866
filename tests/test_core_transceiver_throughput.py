"""Tests for repro.core.transceiver, repro.core.throughput and repro.core.frame."""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.frame import ReceiveResult, StreamDecodeResult
from repro.core.throughput import throughput_for_config, throughput_report
from repro.core.transceiver import MimoTransceiver, simulate_link


class TestMimoTransceiver:
    def test_ideal_channel_burst(self, paper_config):
        transceiver = MimoTransceiver(paper_config)
        result = transceiver.run_burst(200, rng=0)
        assert result.bit_errors == 0
        assert result.total_bits == 800
        assert result.bit_error_rate == 0.0
        assert not result.frame_error
        assert len(result.stream_bit_error_rates) == 4

    def test_fading_channel_burst(self, paper_config, flat_fading_channel):
        transceiver = MimoTransceiver(paper_config, channel=flat_fading_channel)
        result = transceiver.run_burst(200, rng=1)
        assert result.bit_error_rate <= 0.01

    def test_stream_error_rates_average_to_the_burst_rate(self, paper_config):
        channel = MimoChannel(FlatRayleighChannel(rng=30), snr_db=2.0, rng=31)
        result = MimoTransceiver(paper_config, channel=channel).run_burst(100, rng=6)
        assert result.bit_errors > 0
        assert np.mean(result.stream_bit_error_rates) == pytest.approx(result.bit_error_rate)

    def test_known_timing_mode(self, paper_config):
        channel = MimoChannel(sample_delay=40)
        transceiver = MimoTransceiver(paper_config, channel=channel)
        result = transceiver.run_burst(150, rng=2, known_timing=True)
        assert result.bit_errors == 0

    def test_channel_antenna_mismatch_rejected(self, paper_config):
        channel = MimoChannel(FlatRayleighChannel(n_rx=2, n_tx=2, rng=3))
        with pytest.raises(ValueError):
            MimoTransceiver(paper_config, channel=channel)

    def test_burst_object_attached(self, paper_config):
        transceiver = MimoTransceiver(paper_config)
        result = transceiver.run_burst(100, rng=4)
        assert result.burst.payload_bits == 400
        assert isinstance(result.receive_result, ReceiveResult)


class TestSimulateLink:
    def test_aggregates_multiple_bursts(self, paper_config):
        stats = simulate_link(paper_config, n_info_bits=100, n_bursts=3, rng=5)
        assert stats["n_bursts"] == 3
        assert stats["total_bits"] == 3 * 4 * 100
        assert stats["bit_error_rate"] == 0.0
        assert stats["packet_error_rate"] == 0.0

    def test_noisy_link_reports_errors(self, paper_config):
        channel = MimoChannel(FlatRayleighChannel(rng=30), snr_db=2.0, rng=31)
        stats = simulate_link(paper_config, channel, n_info_bits=100, n_bursts=2, rng=6)
        assert stats["bit_errors"] > 0
        assert stats["packet_error_rate"] > 0

    def test_invalid_burst_count(self, paper_config):
        with pytest.raises(ValueError):
            simulate_link(paper_config, n_bursts=0)


class TestFrameContainers:
    def test_stream_decode_result_fields(self):
        result = StreamDecodeResult(
            stream=2,
            decoded_bits=np.array([1, 0, 1], dtype=np.uint8),
            equalized_symbols=np.zeros((1, 48), dtype=complex),
        )
        assert result.stream == 2
        assert result.decoded_bits.size == 3

    def test_receive_result_error_counting(self):
        streams = [
            StreamDecodeResult(
                stream=i,
                decoded_bits=np.array([1, 1, 0, 0], dtype=np.uint8),
                equalized_symbols=np.zeros((1, 4), dtype=complex),
            )
            for i in range(2)
        ]
        result = ReceiveResult(streams=streams, lts_start=0, channel_estimate=None)
        reference = [np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0])]
        assert result.total_bit_errors(reference) == 1
        assert len(result.decoded_bits) == 2

    def test_receive_result_validates_reference(self):
        streams = [
            StreamDecodeResult(
                stream=0,
                decoded_bits=np.array([1], dtype=np.uint8),
                equalized_symbols=np.zeros((1, 1), dtype=complex),
            )
        ]
        result = ReceiveResult(streams=streams, lts_start=0, channel_estimate=None)
        with pytest.raises(ValueError):
            result.total_bit_errors([np.array([1]), np.array([0])])
        with pytest.raises(ValueError):
            result.total_bit_errors([np.array([1, 0])])


class TestThroughput:
    def test_paper_synthesised_configuration_rate(self, paper_config):
        model = throughput_for_config(paper_config)
        assert model.info_bit_rate_bps == pytest.approx(480e6)
        assert not model.meets_gigabit_target()

    def test_gigabit_configuration_rate(self, gigabit_config):
        model = throughput_for_config(gigabit_config)
        assert model.info_bit_rate_bps == pytest.approx(1.08e9)
        assert model.meets_gigabit_target()

    def test_512_point_gigabit(self):
        config = TransceiverConfig(fft_size=512, modulation="64qam", code_rate="3/4")
        model = throughput_for_config(config)
        assert model.info_bit_rate_bps >= 1e9

    def test_report_covers_all_modulation_rate_pairs(self):
        rows = throughput_report()
        assert len(rows) == 12
        gigabit_rows = [row for row in rows if row["meets_1gbps"]]
        assert len(gigabit_rows) == 1
        assert gigabit_rows[0]["modulation"] == "64qam"
        assert gigabit_rows[0]["code_rate"] == "3/4"

    def test_preamble_overhead_reported(self):
        rows = throughput_report(symbols_per_burst=50)
        for row in rows:
            assert row["info_rate_with_preamble_gbps"] < row["info_rate_gbps"]

    def test_report_with_custom_configs(self, gigabit_config):
        rows = throughput_report([gigabit_config])
        assert len(rows) == 1
        assert rows[0]["info_rate_gbps"] == pytest.approx(1.08)
