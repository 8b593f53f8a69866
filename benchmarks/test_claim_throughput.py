"""Claim C1 — the 1 Gbps headline (title/abstract) at a 100 MHz clock.

The paper's synthesised configuration (16-QAM, rate 1/2) carries 480 Mbps;
the 1 Gbps figure requires 64-QAM with rate-3/4 coding (1.08 Gbps), and the
512-point OFDM variant sustains it as well.  This benchmark regenerates the
throughput sweep across every modulation/code-rate pair — enumerated through
the :class:`repro.sim.SweepSpec` grid layer, the same typed description the
link-level sweeps use — and checks who crosses the 1 Gbps line.
"""

import pytest

from repro.coding.convolutional import CodeRate
from repro.core.config import TransceiverConfig
from repro.modulation.constellations import Modulation
from repro.sim import SweepSpec
from repro.sim.engine import build_config

#: (modulation, code rate) -> expected information rate in Gbps at 100 MHz.
EXPECTED_RATES_GBPS = {
    ("bpsk", "1/2"): 0.12,
    ("bpsk", "2/3"): 0.16,
    ("bpsk", "3/4"): 0.18,
    ("qpsk", "1/2"): 0.24,
    ("qpsk", "2/3"): 0.32,
    ("qpsk", "3/4"): 0.36,
    ("16qam", "1/2"): 0.48,
    ("16qam", "2/3"): 0.64,
    ("16qam", "3/4"): 0.72,
    ("64qam", "1/2"): 0.72,
    ("64qam", "2/3"): 0.96,
    ("64qam", "3/4"): 1.08,
}


def test_claim_1gbps_throughput(table_printer):
    # Information rate of every modulation x code-rate pair at the paper's
    # 4x4 / 64-point operating point.
    rates = {
        (config.modulation.value, config.code_rate.value): config.info_bit_rate_bps
        for config in (
            TransceiverConfig(modulation=modulation, code_rate=rate)
            for modulation in Modulation
            for rate in CodeRate
        )
    }

    table_printer(
        "Claim C1: information bit rate at 100 MHz (4 spatial streams, 64-pt OFDM)",
        ["modulation", "rate", "Gbps", "expected", ">= 1 Gbps"],
        [
            (m, r, f"{bps / 1e9:.3f}", EXPECTED_RATES_GBPS[(m, r)], bps >= 1e9)
            for (m, r), bps in rates.items()
        ],
    )

    assert len(rates) == len(EXPECTED_RATES_GBPS)
    for cell, bps in rates.items():
        assert bps / 1e9 == pytest.approx(EXPECTED_RATES_GBPS[cell], rel=1e-9)

    assert [cell for cell, bps in rates.items() if bps >= 1e9] == [("64qam", "3/4")]

    # The synthesised configuration of Tables 1-4 runs at 480 Mbps.
    assert TransceiverConfig.paper_default().info_bit_rate_bps == pytest.approx(480e6)

    # The 512-point variant discussed in Section V also sustains > 1 Gbps.
    large = TransceiverConfig(
        fft_size=512, modulation=Modulation.QAM64, code_rate=CodeRate.RATE_3_4
    )
    assert large.info_bit_rate_bps >= 1e9


def test_claim_throughput_via_sweep_grid(table_printer):
    """The same table, enumerated through the sweep engine's grid layer."""
    spec = SweepSpec(
        snr_db=(30.0,),
        modulations=("bpsk", "qpsk", "16qam", "64qam"),
        code_rates=("1/2", "2/3", "3/4"),
    )

    def _grid_rates():
        return {
            (point.modulation, point.code_rate): build_config(point, spec).info_bit_rate_bps
            for point in spec.points()
        }

    rates = _grid_rates()
    assert len(rates) == len(EXPECTED_RATES_GBPS)
    table_printer(
        "Claim C1 via SweepSpec grid: every (modulation, rate) cell",
        ["modulation", "rate", "Gbps", "expected"],
        [
            (m, r, f"{bps / 1e9:.3f}", EXPECTED_RATES_GBPS[(m, r)])
            for (m, r), bps in sorted(rates.items())
        ],
    )
    for cell, bps in rates.items():
        assert bps / 1e9 == pytest.approx(EXPECTED_RATES_GBPS[cell], rel=1e-9)
