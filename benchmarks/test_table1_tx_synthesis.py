"""Table 1 — MIMO transmitter synthesis results.

Paper (4x4, 16-QAM, 64-point OFDM): ALUTs 33,423 (7.8 %), registers 12,320
(2.9 %), memory bits 265,408 (1.2 %), 18-bit DSP blocks 32 (3.1 %).
The benchmark regenerates the table from the calibrated resource model.
"""

import pytest

from repro.hardware.estimator import STRATIX_IV_DEVICE, TransmitterResourceModel

PAPER_TABLE1 = {
    "aluts": (33_423, 7.8),
    "registers": (12_320, 2.9),
    "memory_bits": (265_408, 1.2),
    "dsp_blocks": (32, 3.1),
}


def _generate_table1():
    model = TransmitterResourceModel()
    totals = model.system_totals()
    utilization = model.utilization(STRATIX_IV_DEVICE)
    return totals, utilization


def test_table1_tx_synthesis(table_printer):
    totals, utilization = _generate_table1()

    available = {
        "aluts": STRATIX_IV_DEVICE.aluts,
        "registers": STRATIX_IV_DEVICE.registers,
        "memory_bits": STRATIX_IV_DEVICE.memory_bits,
        "dsp_blocks": STRATIX_IV_DEVICE.dsp_blocks,
    }
    rows = []
    for resource, (paper_used, paper_pct) in PAPER_TABLE1.items():
        measured = getattr(totals, resource)
        rows.append(
            (
                resource,
                measured,
                paper_used,
                available[resource],
                f"{utilization[resource]:.1f}",
                f"{paper_pct:.1f}",
            )
        )
    table_printer(
        "Table 1: MIMO Transmitter Synthesis Results",
        ["resource", "measured", "paper", "available", "measured %", "paper %"],
        rows,
    )

    for resource, (paper_used, paper_pct) in PAPER_TABLE1.items():
        assert getattr(totals, resource) == paper_used
        assert utilization[resource] == pytest.approx(paper_pct, abs=0.15)
