#!/usr/bin/env python
"""FPGA resource report: regenerate Tables 1-4 and the 512-point projection.

Reproduces: Table 1 (transmitter synthesis), Table 2 (transmitter by
entity), Table 3 (receiver synthesis), Table 4 (receiver by entity), the
"channel estimation dominates" observation of Section IV, and Section V's
512-point OFDM scaling projection — printed in the same shape as the
paper's synthesis tables.

Run from a clean checkout with::

    PYTHONPATH=src python examples/resource_report.py

(The PYTHONPATH prefix is optional; the script falls back to the in-tree
``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro import TransceiverConfig
from repro.hardware.estimator import (
    ReceiverResourceModel,
    STRATIX_IV_DEVICE,
    TransmitterResourceModel,
)


def _print_totals(title: str, totals, utilization) -> None:
    print(f"\n{title}")
    print(f"{'Resource':<16s}{'Used':>12s}{'Available':>14s}{'% Used':>9s}")
    device = {
        "aluts": STRATIX_IV_DEVICE.aluts,
        "registers": STRATIX_IV_DEVICE.registers,
        "memory_bits": STRATIX_IV_DEVICE.memory_bits,
        "dsp_blocks": STRATIX_IV_DEVICE.dsp_blocks,
    }
    for key, label in [
        ("aluts", "ALUTs"),
        ("registers", "Registers"),
        ("memory_bits", "Memory bits"),
        ("dsp_blocks", "18-bit DSP"),
    ]:
        print(
            f"{label:<16s}{getattr(totals, key):>12,d}{device[key]:>14,d}"
            f"{utilization[key]:>8.1f}%"
        )


def _print_entities(title: str, report) -> None:
    print(f"\n{title}")
    print(f"{'Entity':<22s}{'ALUTs':>10s}{'Registers':>12s}{'Mem bits':>10s}{'DSP':>6s}")
    for name, usage in report.items():
        print(
            f"{name:<22s}{usage.aluts:>10,d}{usage.registers:>12,d}"
            f"{usage.memory_bits:>10,d}{usage.dsp_blocks:>6d}"
        )


def main() -> None:
    tx = TransmitterResourceModel()
    rx = ReceiverResourceModel()

    print("=" * 70)
    print("Resource model at the paper's configuration (4x4, 16-QAM, 64-pt OFDM)")
    print("=" * 70)
    _print_totals("Table 1: MIMO transmitter synthesis results",
                  tx.system_totals(), tx.utilization())
    _print_entities(
        "Table 2: transmitter resource utilisation by entity",
        {name: tx.entity_usage(name) for name in TransmitterResourceModel.REFERENCE_ENTITIES},
    )
    _print_totals("Table 3: MIMO receiver synthesis results",
                  rx.system_totals(), rx.utilization())
    _print_entities(
        "Table 4: receiver resource utilisation by entity",
        {name: rx.entity_usage(name) for name in ReceiverResourceModel.REFERENCE_ENTITIES},
    )

    share = rx.channel_estimation_share()
    print(
        "\nChannel estimation + equalisation blocks account for "
        f"{share['aluts'] * 100:.0f}% of ALUTs and {share['dsp_blocks'] * 100:.0f}% "
        "of DSP multipliers (paper: 86% and 77%)."
    )

    print("\n" + "=" * 70)
    print("Projection for the 512-point OFDM variant discussed in Section V")
    print("=" * 70)
    config512 = TransceiverConfig(fft_size=512)
    tx512 = TransmitterResourceModel(config512)
    rx512 = ReceiverResourceModel(config512)
    print(
        f"Transmitter memory bits : {tx.system_totals().memory_bits:>12,d} -> "
        f"{tx512.system_totals().memory_bits:>12,d} "
        f"({tx512.system_totals().memory_bits / tx.system_totals().memory_bits:.1f}x)"
    )
    print(
        f"Receiver memory bits    : {rx.system_totals().memory_bits:>12,d} -> "
        f"{rx512.system_totals().memory_bits:>12,d} "
        f"({rx512.system_totals().memory_bits / rx.system_totals().memory_bits:.1f}x)"
    )
    print(
        f"Receiver memory usage   : {rx512.utilization()['memory_bits']:.1f}% of the device "
        "(plenty of headroom, as the paper argues)"
    )
    estimation_aluts = sum(
        rx512.entity_usage(entity).aluts
        for entity in ReceiverResourceModel.CHANNEL_ESTIMATION_ENTITIES
    )
    print(
        f"Channel-estimation ALUTs: {estimation_aluts:,d} "
        "(unchanged from the 64-point build)"
    )


if __name__ == "__main__":
    main()
