"""Ablation A4 — MIMO vs SISO: what the four-channel replication buys & costs.

The paper positions the 4x4 transmitter as "very similar to that of the SISO
system — the greater resources required are simply due to replication for
the four channels", and the receiver's dominant extra cost is the channel
estimation/equalisation needed to separate the streams.  This benchmark
quantifies both statements with the reproduction's models: throughput and
transmitter resources scale ~linearly with the channel count, while the
receiver's QRD/inversion cost appears only in the MIMO builds.
"""

import pytest

from repro.core.config import TransceiverConfig
from repro.hardware.estimator import (
    ReceiverResourceModel,
    TransmitterResourceModel,
)

CHANNEL_COUNTS = [1, 2, 4]


def _generate_comparison():
    rows = []
    for n in CHANNEL_COUNTS:
        config = TransceiverConfig(n_antennas=n)
        tx = TransmitterResourceModel(config)
        rx = ReceiverResourceModel(config)
        estimation_aluts = sum(
            rx.entity_usage(entity).aluts
            for entity in ReceiverResourceModel.CHANNEL_ESTIMATION_ENTITIES
        )
        rows.append(
            {
                "channels": n,
                "info_rate_mbps": config.info_bit_rate_bps / 1e6,
                "tx_aluts": tx.system_totals().aluts,
                "rx_estimation_aluts": estimation_aluts,
            }
        )
    return rows


def test_ablation_mimo_vs_siso(table_printer):
    rows = _generate_comparison()
    table_printer(
        "Ablation A4: antenna-count scaling (16-QAM, rate 1/2, 64-pt OFDM)",
        ["channels", "info rate (Mbps)", "TX ALUTs", "RX estimation ALUTs"],
        [
            (
                row["channels"],
                f"{row['info_rate_mbps']:.0f}",
                row["tx_aluts"],
                row["rx_estimation_aluts"],
            )
            for row in rows
        ],
    )
    siso, two_by_two, mimo = rows
    # Throughput is proportional to the number of spatial streams.
    assert mimo["info_rate_mbps"] == pytest.approx(4 * siso["info_rate_mbps"])
    assert two_by_two["info_rate_mbps"] == pytest.approx(2 * siso["info_rate_mbps"])
    # Transmitter cost is dominated by per-channel replication (~4x SISO).
    assert mimo["tx_aluts"] == pytest.approx(4 * siso["tx_aluts"], rel=0.02)
    # The channel estimation / equalisation burden grows super-linearly with
    # the antenna count (QRD cell count ~ n^2), which is why it dominates the
    # 4x4 receiver (Table 4).
    assert mimo["rx_estimation_aluts"] > 4 * siso["rx_estimation_aluts"]
