"""Tests for the receive records of repro.core.frame and the information bit rate."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.frame import FrontEndResult, ReceiveResult


def _receive_result(decoded_bits):
    decoded_bits = np.array(decoded_bits, dtype=np.uint8)
    n_streams = decoded_bits.shape[0]
    return ReceiveResult(
        coded=np.zeros((n_streams, 2 * decoded_bits.shape[1])),
        equalized=np.zeros((n_streams, 1, 4), dtype=complex),
        lts_start=0,
        channel_estimate=None,
        estimated_cfo=0.0,
        mean_pilot_phase=0.0,
        decoded_bits=decoded_bits,
    )


class TestFrameContainers:
    def test_receive_result_is_the_front_end_record_plus_decoded_bits(self):
        front_end = [field.name for field in fields(FrontEndResult)]
        assert front_end == [
            "coded",
            "equalized",
            "lts_start",
            "channel_estimate",
            "estimated_cfo",
            "mean_pilot_phase",
        ]
        assert [field.name for field in fields(ReceiveResult)] == front_end + ["decoded_bits"]

    def test_receive_result_error_counting(self):
        result = _receive_result([[1, 1, 0, 0], [1, 1, 0, 0]])
        reference = [np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0])]
        assert result.total_bit_errors(reference) == 1
        assert len(result.decoded_bits) == 2

    def test_receive_result_validates_reference(self):
        result = _receive_result([[1]])
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
