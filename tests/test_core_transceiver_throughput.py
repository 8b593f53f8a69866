"""Tests for repro.core.throughput and repro.core.frame."""

import numpy as np
import pytest

from repro.core.frame import ReceiveResult, StreamDecodeResult
from repro.core.throughput import throughput_report


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
        assert paper_config.info_bit_rate_bps == pytest.approx(480e6)
        assert paper_config.info_bit_rate_bps < 1e9

    def test_gigabit_configuration_rate(self, gigabit_config):
        assert gigabit_config.info_bit_rate_bps == pytest.approx(1.08e9)

    def test_rate_counts_every_stream(self, gigabit_config):
        # 4 streams x 48 carriers x 6 bits x 3/4 per 80-sample symbol at
        # 100 MHz; coded_bits_per_symbol counts one stream.
        assert gigabit_config.coded_bits_per_symbol == 48 * 6
        assert gigabit_config.symbol_duration_s() == pytest.approx(800e-9)
        assert gigabit_config.info_bit_rate_bps == pytest.approx(4 * 48 * 6 * 0.75 / 800e-9)

    def test_report_covers_all_modulation_rate_pairs(self):
        rows = throughput_report()
        assert len(rows) == 12
        assert set(rows[0]) == {"modulation", "code_rate", "info_rate_gbps", "meets_1gbps"}
        gigabit_rows = [row for row in rows if row["meets_1gbps"]]
        assert len(gigabit_rows) == 1
        assert gigabit_rows[0]["modulation"] == "64qam"
        assert gigabit_rows[0]["code_rate"] == "3/4"
        assert gigabit_rows[0]["info_rate_gbps"] == pytest.approx(1.08)
