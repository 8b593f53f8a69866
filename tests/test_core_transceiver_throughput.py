"""Tests for repro.core.throughput and repro.core.frame."""

import numpy as np
import pytest

from repro.core.config import TransceiverConfig
from repro.core.frame import ReceiveResult, StreamDecodeResult
from repro.core.throughput import throughput_for_config, throughput_report
from repro.exceptions import ConfigurationError


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

    def test_rates_are_read_from_the_config(self, gigabit_config):
        # 4 streams x 48 carriers x 6 bits per 80-sample symbol at 100 MHz.
        model = throughput_for_config(gigabit_config)
        assert model.config is gigabit_config
        assert model.samples_per_symbol == 80
        assert model.symbol_duration_s == pytest.approx(800e-9)
        assert model.coded_bits_per_symbol == 4 * 48 * 6
        assert model.coded_bit_rate_bps == pytest.approx(1.44e9)
        assert model.info_bit_rate_bps == pytest.approx(model.coded_bit_rate_bps * 0.75)

    def test_preamble_overhead_formula(self, gigabit_config):
        model = throughput_for_config(gigabit_config)
        with_preamble = model.info_bit_rate_with_preamble_bps(
            symbols_per_burst=100, preamble_samples=800
        )
        assert with_preamble == pytest.approx(
            model.info_bit_rate_bps * (100 * 80) / (100 * 80 + 800)
        )
        with pytest.raises(ConfigurationError):
            model.info_bit_rate_with_preamble_bps(symbols_per_burst=0, preamble_samples=800)
        with pytest.raises(ConfigurationError):
            model.info_bit_rate_with_preamble_bps(symbols_per_burst=10, preamble_samples=-1)

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
