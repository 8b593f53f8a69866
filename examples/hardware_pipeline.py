#!/usr/bin/env python
"""Hardware-structure walkthrough: the QRD array of Figs. 6-8 and its latency.

Reproduces: the paper's CORDIC systolic QRD array with its 440-cycle
latency, and why the receiver buffers OFDM data in FIFOs while channel
estimation completes.

* reports the CORDIC systolic QRD array's composition and 440-cycle
  latency, and decomposes one channel matrix in its CORDIC arithmetic;
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

from repro.dsp.cordic import Cordic
from repro.hardware.latency import LatencyModel
from repro.hardware.qrd import QrdArray
from repro.mimo.matrix import frobenius_error, hermitian
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular


def main() -> None:
    print("=== QR decomposition systolic array (Figs. 6-8) ===")
    array = QrdArray(n=4)
    rng = np.random.default_rng(11)
    channel_matrix = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
    q, r = qr_decompose_givens(channel_matrix, cordic=Cordic(iterations=16))
    h_inverse = invert_upper_triangular(r) @ hermitian(q)
    print(f"boundary cells           : {array.boundary_cells} (2 vectoring CORDICs each)")
    print(f"internal cells (R array) : {array.r_internal_cells} (3 rotation CORDICs each)")
    print(f"internal cells (Q array) : {array.q_internal_cells}")
    print(f"total CORDIC elements    : {array.cordic_count}")
    print(f"datapath latency         : {array.latency_cycles} cycles "
          f"({array.latency_cycles / 100e6 * 1e6:.1f} us at 100 MHz)")
    print(f"reconstruction error     : {frobenius_error(q @ r, channel_matrix):.2e}")
    print(f"|H^-1 H - I|             : {frobenius_error(h_inverse @ channel_matrix, np.eye(4)):.2e}")

    print("\n=== Receive pipeline latency (why OFDM data is buffered in FIFOs) ===")
    latency = LatencyModel()
    for name, value in latency.breakdown().items():
        print(f"{name:<28s}: {value} cycles")
    print(f"{'required data FIFO depth':<28s}: {latency.required_data_fifo_depth()} samples")
    print(f"{'total latency':<28s}: {latency.latency_seconds() * 1e6:.1f} us at 100 MHz")


if __name__ == "__main__":
    main()
