"""Table 3 — MIMO receiver synthesis results.

Paper (4x4, 16-QAM, 64-point OFDM): ALUTs 183,957 (43.2 %), registers
173,335 (40.7 %), memory bits 367,060 (1.72 %), DSP blocks 896 (87.5 %).
"""

import pytest

from repro.hardware.estimator import ReceiverResourceModel, STRATIX_IV_DEVICE

PAPER_TABLE3 = {
    "aluts": (183_957, 43.2),
    "registers": (173_335, 40.7),
    "memory_bits": (367_060, 1.72),
    "dsp_blocks": (896, 87.5),
}


def _generate_table3():
    model = ReceiverResourceModel()
    return model.system_totals(), model.utilization(STRATIX_IV_DEVICE)


def test_table3_rx_synthesis(table_printer):
    totals, utilization = _generate_table3()

    available = {
        "aluts": STRATIX_IV_DEVICE.aluts,
        "registers": STRATIX_IV_DEVICE.registers,
        "memory_bits": STRATIX_IV_DEVICE.memory_bits,
        "dsp_blocks": STRATIX_IV_DEVICE.dsp_blocks,
    }
    rows = []
    for resource, (paper_used, paper_pct) in PAPER_TABLE3.items():
        rows.append(
            (
                resource,
                getattr(totals, resource),
                paper_used,
                available[resource],
                f"{utilization[resource]:.2f}",
                f"{paper_pct:.2f}",
            )
        )
    table_printer(
        "Table 3: MIMO Receiver Synthesis Results",
        ["resource", "measured", "paper", "available", "measured %", "paper %"],
        rows,
    )

    for resource, (paper_used, paper_pct) in PAPER_TABLE3.items():
        assert getattr(totals, resource) == paper_used
        assert utilization[resource] == pytest.approx(paper_pct, abs=0.15)
