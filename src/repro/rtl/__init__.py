"""Structural (RTL-level) model of the paper's QRD systolic array.

Where :mod:`repro.core` is the functional model of the transceiver, this
package models the *structure* behind the paper's cycle-level claim:

* :mod:`repro.rtl.systolic_qrd` — the triangular R array and square Q array
  of CORDIC cells (Figs. 6-8), with per-cell latency accounting that
  reproduces the 440-cycle QRD datapath latency; the array models
  structure and latency, and its numbers come from
  :func:`repro.mimo.qr.qr_decompose_givens` in CORDIC arithmetic.
"""

from repro.rtl.systolic_qrd import SystolicQrdArray, QrdCellKind

__all__ = [
    "SystolicQrdArray",
    "QrdCellKind",
]
