"""Tests for repro.hardware.latency."""

import numpy as np
import pytest

from repro.core.config import TransceiverConfig
from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.hardware.latency import FFT_PIPELINE_PER_STAGE, LatencyModel

CONFIG_512 = TransceiverConfig(fft_size=512)


class TestQrdCriticalPath:
    def test_paper_value_for_4x4(self):
        # 5 n + 2 = 22 CORDIC stages of 20 cycles each.
        model = LatencyModel()
        assert model.qrd.critical_path_cordics == 22
        assert model.qrd.critical_path_cordics * CORDIC_PIPELINE_LATENCY == model.qrd_cycles

    def test_grows_with_matrix_size(self):
        qrd_8x8 = LatencyModel(TransceiverConfig(n_antennas=8)).qrd_cycles
        assert qrd_8x8 > LatencyModel().qrd_cycles


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


class TestLatencyAcrossConfigurations:
    @pytest.mark.parametrize("fft_size", [64, 512])
    @pytest.mark.parametrize("n_antennas", [1, 2, 4, 8])
    def test_channel_estimation_streams_one_matrix_entry_per_cycle(
        self, n_antennas, fft_size
    ):
        # fft_size subcarriers of n x n channel matrices are read once each,
        # then the QRD, R-inverse and multiply pipelines flush.
        model = LatencyModel(TransceiverConfig(n_antennas=n_antennas, fft_size=fft_size))
        flush = model.qrd_cycles + model.r_inverse_cycles + model.matrix_multiply_cycles
        assert model.channel_estimation_cycles - flush == fft_size * n_antennas**2
        assert model.required_data_fifo_depth() == model.channel_estimation_cycles

    @pytest.mark.parametrize("fft_size", [64, 128, 256, 512, 1024])
    def test_fft_latency_is_ingest_plus_stage_flush(self, fft_size):
        model = LatencyModel(TransceiverConfig(fft_size=fft_size))
        stages = int(np.log2(fft_size))
        assert model.fft_cycles == fft_size + stages * FFT_PIPELINE_PER_STAGE

