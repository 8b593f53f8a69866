#!/usr/bin/env python
"""Hardware-structure walkthrough: the blocks of Figs. 1, 4, 5, 6-8.

Reproduces: the paper's block-level hardware story — Fig. 4's transmit
pipeline, Fig. 5's receive front end, Figs. 6-8's CORDIC systolic QRD array
with its 440-cycle latency, and the channel-matrix memory schedule.

Runs the structural (RTL-level) models instead of the functional ones:

* streams coded bits through the ping-pong interleaver / mapper-ROM /
  cyclic-prefix double buffer transmit pipeline and reports its cycle count;
* drives the receiver front end (circular buffers + 32-tap correlator) and
  shows where the burst was found;
* pushes one channel matrix through the CORDIC systolic QRD array cell by
  cell and reports the array composition and the 440-cycle latency;
* prints the channel-matrix memory read schedule the scheduler issues;
* prints the receive-pipeline latency breakdown and the FIFO depth needed
  to buffer data while channel estimation completes.

Run from a clean checkout with::

    PYTHONPATH=src python examples/hardware_pipeline.py

(The PYTHONPATH prefix is optional; the script falls back to the in-tree
``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import numpy as np

import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro import TransceiverConfig
from repro.core.transmitter import MimoTransmitter
from repro.hardware.latency import LatencyModel
from repro.mimo.matrix import frobenius_error, hermitian
from repro.mimo.rinv import invert_upper_triangular
from repro.rtl.scheduler import ChannelMatrixScheduler
from repro.rtl.systolic_qrd import SystolicQrdArray
from repro.rtl.rx_datapath import RxFrontEnd
from repro.rtl.tx_datapath import TxStreamDatapath


def main() -> None:
    config = TransceiverConfig.paper_default()
    transmitter = MimoTransmitter(config)
    burst = transmitter.transmit_random(400, rng=np.random.default_rng(7))

    print("=== Transmit datapath (Fig. 1, one spatial stream) ===")
    datapath = TxStreamDatapath(config)
    samples, report = datapath.stream(burst.coded_bits[0])
    functional = burst.samples[0, burst.layout.total_length:]
    match = np.allclose(samples, functional[: samples.size])
    print(f"coded bits streamed      : {report.input_bits}")
    print(f"OFDM symbols emitted     : {report.ofdm_symbols}")
    print(f"output samples           : {report.output_samples}")
    print(f"cycles consumed          : {report.cycles_consumed}")
    print(f"matches functional model : {match}")

    print("\n=== Receiver front end (Fig. 4 / Fig. 5 input stage) ===")
    front_end = RxFrontEnd(config)
    sync_report = front_end.ingest(burst.samples)
    print(f"circular buffer depth    : {front_end.buffers[0].depth} samples per antenna")
    print(f"correlator window        : {front_end.synchronizer.window_length} samples "
          f"(128 real multipliers in hardware)")
    print(f"LTS located at sample    : {sync_report.lts_start} "
          f"(preamble transmitted at {burst.layout.sts_length})")

    print("\n=== QR decomposition systolic array (Figs. 6-8) ===")
    array = SystolicQrdArray(n=4, cordic_iterations=16)
    rng = np.random.default_rng(11)
    channel_matrix = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
    r, q_hermitian = array.process(channel_matrix)
    h_inverse = invert_upper_triangular(r) @ q_hermitian
    print(f"boundary cells           : {array.boundary_cell_count} (2 vectoring CORDICs each)")
    print(f"internal cells (R array) : {array.r_array_internal_cell_count} (3 rotation CORDICs each)")
    print(f"internal cells (Q array) : {array.internal_cell_count - array.r_array_internal_cell_count}")
    print(f"total CORDIC elements    : {array.total_cordic_count}")
    print(f"datapath latency         : {array.datapath_latency_cycles} cycles "
          f"({array.datapath_latency_cycles / 100e6 * 1e6:.1f} us at 100 MHz)")
    print(f"reconstruction error     : "
          f"{frobenius_error(hermitian(q_hermitian) @ r, channel_matrix):.2e}")
    print(f"|H^-1 H - I|             : {frobenius_error(h_inverse @ channel_matrix, np.eye(4)):.2e}")

    print("\n=== Channel-matrix memory scheduler (Fig. 8 dataflow) ===")
    scheduler = ChannelMatrixScheduler(n_antennas=4, n_subcarriers=52, burst_length=20)
    scheduler.validate()
    first_reads = list(scheduler.column_schedule(0))[:3]
    print(f"memories multiplexed     : {scheduler.n_memories} (H00..H33)")
    print(f"burst length per memory  : {scheduler.burst_length} addresses (CORDIC latency)")
    print("first column-0 reads     : "
          + ", ".join(f"H{r.memory_row}{r.memory_col}[sc {r.subcarrier}]" for r in first_reads))
    print(f"full schedule length     : {scheduler.total_schedule_cycles()} cycles")

    print("\n=== Receive pipeline latency (why OFDM data is buffered in FIFOs) ===")
    latency = LatencyModel()
    for name, value in latency.breakdown().items():
        print(f"{name:<28s}: {value} cycles")
    print(f"{'required data FIFO depth':<28s}: {latency.required_data_fifo_depth()} samples")
    print(f"{'total latency':<28s}: {latency.latency_seconds() * 1e6:.1f} us at 100 MHz")


if __name__ == "__main__":
    main()
