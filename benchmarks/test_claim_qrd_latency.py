"""Claim C2 — CORDIC and QRD pipeline latency (Section IV / Fig. 8 text).

Paper: "Each CORDIC element has a latency of 20 clock cycles ... The QRD
circuit therefore has a data-path latency of 440 clock cycles."  The
benchmark regenerates those figures from the structural systolic-array model
and runs one matrix decomposition through the cell-level model.
"""

import numpy as np

from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.hardware.latency import LatencyModel, PAPER_QRD_LATENCY_CYCLES
from repro.rtl.systolic_qrd import SystolicQrdArray

PAPER_CORDIC_LATENCY = 20
PAPER_BOUNDARY_CELLS = 4
PAPER_R_INTERNAL_CELLS = 6


def test_claim_qrd_latency(table_printer):
    array = SystolicQrdArray(n=4, cordic_iterations=16)
    rng = np.random.default_rng(0)
    matrix = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)

    array.process(matrix)

    latency_model = LatencyModel()
    rows = [
        ("CORDIC pipeline latency (cycles)", CORDIC_PIPELINE_LATENCY, PAPER_CORDIC_LATENCY),
        ("QRD boundary cells", array.boundary_cell_count, PAPER_BOUNDARY_CELLS),
        ("QRD internal cells (R array)", array.r_array_internal_cell_count, PAPER_R_INTERNAL_CELLS),
        ("QRD datapath latency (cycles)", array.datapath_latency_cycles, PAPER_QRD_LATENCY_CYCLES),
        (
            "QRD datapath latency (us @ 100 MHz)",
            f"{array.datapath_latency_cycles * 10e-3:.2f}",
            f"{PAPER_QRD_LATENCY_CYCLES * 10e-3:.2f}",
        ),
        (
            "Channel-estimation latency (cycles, 64 subcarriers)",
            latency_model.channel_estimation_cycles,
            "(not reported; 'massive latency')",
        ),
    ]
    table_printer("Claim C2: CORDIC / QRD latency", ["quantity", "measured", "paper"], rows)

    assert CORDIC_PIPELINE_LATENCY == PAPER_CORDIC_LATENCY
    assert array.boundary_cell_count == PAPER_BOUNDARY_CELLS
    assert array.r_array_internal_cell_count == PAPER_R_INTERNAL_CELLS
    assert array.datapath_latency_cycles == PAPER_QRD_LATENCY_CYCLES
    assert latency_model.qrd_cycles == PAPER_QRD_LATENCY_CYCLES
    # The data FIFOs must cover the channel-estimation latency, which is why
    # the paper buffers OFDM frames while estimation completes.
    assert latency_model.required_data_fifo_depth() > PAPER_QRD_LATENCY_CYCLES
