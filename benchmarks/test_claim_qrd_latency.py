"""Claim C2 — CORDIC and QRD pipeline latency (Section IV / Fig. 8 text).

Paper: "Each CORDIC element has a latency of 20 clock cycles ... The QRD
circuit therefore has a data-path latency of 440 clock cycles."  The
benchmark regenerates those figures from the systolic-array statement,
:class:`repro.hardware.qrd.QrdArray`, and the receive latency model.
"""

from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.hardware.latency import LatencyModel
from repro.hardware.qrd import QrdArray

PAPER_CORDIC_LATENCY = 20
PAPER_BOUNDARY_CELLS = 4
PAPER_R_INTERNAL_CELLS = 6
PAPER_QRD_LATENCY_CYCLES = 440


def test_claim_qrd_latency(table_printer):
    array = QrdArray(n=4)
    latency_model = LatencyModel()
    rows = [
        ("CORDIC pipeline latency (cycles)", CORDIC_PIPELINE_LATENCY, PAPER_CORDIC_LATENCY),
        ("QRD boundary cells", array.boundary_cells, PAPER_BOUNDARY_CELLS),
        ("QRD internal cells (R array)", array.r_internal_cells, PAPER_R_INTERNAL_CELLS),
        ("QRD datapath latency (cycles)", array.latency_cycles, PAPER_QRD_LATENCY_CYCLES),
        (
            "QRD datapath latency (us @ 100 MHz)",
            f"{array.latency_cycles * 10e-3:.2f}",
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
    assert array.boundary_cells == PAPER_BOUNDARY_CELLS
    assert array.r_internal_cells == PAPER_R_INTERNAL_CELLS
    assert array.latency_cycles == PAPER_QRD_LATENCY_CYCLES
    assert latency_model.qrd_cycles == PAPER_QRD_LATENCY_CYCLES
    # The data FIFOs must cover the channel-estimation latency, which is why
    # the paper buffers OFDM frames while estimation completes.
    assert latency_model.required_data_fifo_depth() > PAPER_QRD_LATENCY_CYCLES
