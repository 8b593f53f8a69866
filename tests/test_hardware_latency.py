"""Tests for repro.hardware.latency."""

import pytest

from repro.core.config import TransceiverConfig
from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.hardware.estimator import qrd_cordic_cell_count
from repro.hardware.latency import (
    LatencyModel,
    PAPER_QRD_LATENCY_CYCLES,
    qrd_critical_path_cordics,
)
from repro.rtl.systolic_qrd import SystolicQrdArray

CONFIG_512 = TransceiverConfig(fft_size=512)


class TestQrdCriticalPath:
    def test_paper_value_for_4x4(self):
        assert qrd_critical_path_cordics(4) * CORDIC_PIPELINE_LATENCY == PAPER_QRD_LATENCY_CYCLES

    def test_grows_with_matrix_size(self):
        assert qrd_critical_path_cordics(8) > qrd_critical_path_cordics(4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            qrd_critical_path_cordics(0)


class TestLatencyModel:
    def test_qrd_latency_matches_paper(self):
        assert LatencyModel().qrd_cycles == 440

    def test_time_sync_latency_includes_window_and_cordic(self):
        model = LatencyModel()
        assert model.time_sync_cycles >= 32 + CORDIC_PIPELINE_LATENCY

    def test_fft_latency_scales_with_size(self):
        assert LatencyModel(CONFIG_512).fft_cycles > LatencyModel().fft_cycles

    def test_channel_estimation_dominated_by_streaming(self):
        model = LatencyModel()
        # Streaming 64 subcarriers of 16 matrix entries each = 1024 cycles,
        # which exceeds the 440-cycle QRD flush.
        assert model.channel_estimation_cycles > model.qrd_cycles

    def test_channel_estimation_scales_with_fft_size(self):
        small = LatencyModel().channel_estimation_cycles
        large = LatencyModel(CONFIG_512).channel_estimation_cycles
        assert large > 4 * small

    def test_total_is_sum_of_stages(self):
        model = LatencyModel()
        breakdown = model.breakdown()
        assert breakdown["total_cycles"] == model.total_cycles
        assert breakdown["qrd_cycles"] == 440
        assert model.total_cycles == (
            model.time_sync_cycles
            + 2 * 64
            + 16
            + model.fft_cycles
            + model.channel_estimation_cycles
        )

    def test_512_point_lts_ingest_reads_the_config_cyclic_prefix(self):
        # 2 x 512 LTS samples behind a 128-sample cyclic prefix.
        model = LatencyModel(CONFIG_512)
        lts_ingest = (
            model.total_cycles
            - model.time_sync_cycles
            - model.fft_cycles
            - model.channel_estimation_cycles
        )
        assert lts_ingest == 2 * 512 + 128
        assert model.total_cycles == 10_512

    def test_fifo_depth_covers_estimation_latency(self):
        model = LatencyModel()
        assert model.required_data_fifo_depth() == model.channel_estimation_cycles

    def test_latency_in_seconds_at_100mhz(self):
        model = LatencyModel()
        assert model.latency_seconds() == pytest.approx(model.total_cycles * 10e-9)

    def test_breakdown_as_dict(self):
        d = LatencyModel().breakdown()
        assert d["qrd_cycles"] == 440
        assert set(d) >= {"time_sync_cycles", "fft_cycles", "total_cycles"}


@pytest.mark.parametrize("n", range(1, 9))
def test_structure_and_cost_views_agree(n):
    array = SystolicQrdArray(n)
    assert array.total_cordic_count == qrd_cordic_cell_count(n)
    assert (
        array.datapath_latency_cycles
        == LatencyModel(TransceiverConfig(n_antennas=n)).qrd_cycles
    )
