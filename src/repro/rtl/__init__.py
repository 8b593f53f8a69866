"""Structural (RTL-level) models of the paper's datapaths.

Where :mod:`repro.core` is the functional model of the transceiver, this
package models the *structure* the paper describes so that cycle-level
claims can be checked:

* :mod:`repro.rtl.systolic_qrd` — the triangular R array and square Q array
  of CORDIC cells (Figs. 6-8), with per-cell latency accounting that
  reproduces the 440-cycle QRD datapath latency; the array models
  structure and latency, and its numbers come from
  :func:`repro.mimo.qr.qr_decompose_givens` in CORDIC arithmetic;
* :mod:`repro.rtl.scheduler` — the channel-matrix memory read scheduler that
  staggers subcarriers into the array 20 addresses at a time;
* :mod:`repro.rtl.tx_datapath` — the streaming transmit pipeline built from
  the ping-pong interleaver memories, the dual look-up mapper ROMs and the
  double-buffered cyclic-prefix memory, with cycle counting;
* :mod:`repro.rtl.rx_datapath` — the streaming receive pipeline front end
  (circular input buffers, correlator, FFT buffering) with cycle counting.
"""

from repro.rtl.scheduler import ChannelMatrixScheduler
from repro.rtl.systolic_qrd import SystolicQrdArray, QrdCellKind
from repro.rtl.rx_datapath import RxFrontEnd
from repro.rtl.tx_datapath import TxStreamDatapath

__all__ = [
    "ChannelMatrixScheduler",
    "SystolicQrdArray",
    "QrdCellKind",
    "RxFrontEnd",
    "TxStreamDatapath",
]
