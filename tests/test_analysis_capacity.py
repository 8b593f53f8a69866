"""Tests for repro.analysis.capacity."""

import numpy as np
import pytest

from repro.analysis.capacity import (
    ergodic_mimo_capacity,
    mimo_capacity,
    required_snr_for_rate,
    spectral_efficiency,
)
from repro.core.config import TransceiverConfig


class TestMimoCapacity:
    def test_identity_channel_matches_parallel_awgn(self):
        # H = I: four parallel channels each with SNR/4.
        snr_db = 20.0
        capacity = mimo_capacity(np.eye(4), snr_db)
        expected = 4 * np.log2(1 + 100.0 / 4)
        assert capacity == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 30.0])
    def test_siso_capacity(self, snr_db):
        expected = np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        assert mimo_capacity(np.eye(1), snr_db) == pytest.approx(expected, rel=1e-12)

    def test_capacity_increases_with_snr(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert mimo_capacity(h, 25.0) > mimo_capacity(h, 10.0)

    def test_capacity_increases_with_antennas_at_high_snr(self):
        assert ergodic_mimo_capacity(4, 4, 20.0, 100, rng=1) > ergodic_mimo_capacity(
            1, 1, 20.0, 100, rng=1
        )

    def test_rank_deficient_channel_has_lower_capacity(self):
        full_rank = np.eye(4)
        rank_one = np.ones((4, 4)) / 2.0
        assert mimo_capacity(rank_one, 20.0) < mimo_capacity(full_rank, 20.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mimo_capacity(np.ones(4), 10.0)
        with pytest.raises(ValueError):
            ergodic_mimo_capacity(n_realizations=0)


class TestSpectralEfficiency:
    def test_paper_configuration(self):
        # 480 Mbps over 100 MHz -> 4.8 bits/s/Hz.
        assert spectral_efficiency(TransceiverConfig.paper_default()) == pytest.approx(4.8)

    def test_gigabit_configuration(self):
        # 1.08 Gbps over 100 MHz -> 10.8 bits/s/Hz.
        assert spectral_efficiency(TransceiverConfig.gigabit()) == pytest.approx(10.8)

    def test_scales_with_streams(self):
        siso = spectral_efficiency(TransceiverConfig(n_antennas=1))
        mimo = spectral_efficiency(TransceiverConfig(n_antennas=4))
        assert mimo == pytest.approx(4 * siso)


class TestRequiredSnr:
    def test_gigabit_point_is_feasible_below_30db(self):
        # The 10.8 bits/s/Hz needed for 1.08 Gbps is within the 4x4 ergodic
        # capacity at practical SNRs.
        required = required_snr_for_rate(10.8, n_realizations=50, rng=2)
        assert required <= 30.0

    def test_siso_cannot_reach_gigabit_efficiency_at_reasonable_snr(self):
        # The same 10.8 bits/s/Hz on a SISO link needs > 30 dB — the
        # motivation for MIMO in the paper's introduction.
        required = required_snr_for_rate(
            10.8, n_rx=1, n_tx=1, n_realizations=50, rng=3, snr_grid_db=np.arange(0.0, 31.0, 2.0)
        )
        assert required == float("inf") or required > 30.0

    def test_monotone_in_target(self):
        low = required_snr_for_rate(2.0, n_realizations=30, rng=4)
        high = required_snr_for_rate(12.0, n_realizations=30, rng=4)
        assert low <= high

    def test_validation(self):
        with pytest.raises(ValueError):
            required_snr_for_rate(0.0)
