"""FPGA hardware substrate models.

The paper's evaluation (Section V) is an FPGA synthesis report: ALUTs,
registers, memory bits and 18-bit DSP blocks per entity, a 100 MHz clock and
pipeline latencies.  Because we have no FPGA or vendor toolchain, this
package provides the substitute substrate:

* :mod:`repro.hardware.qrd` — the CORDIC systolic QRD array of Figs. 6-8,
  stated once: its R and Q cell counts, CORDIC total, ``5n+2``-stage
  critical path (440 cycles at 4x4) and the rule that streams one
  channel-matrix entry into it per clock;
* :mod:`repro.hardware.resources` — report dataclasses (the "synthesis
  report" format);
* :mod:`repro.hardware.estimator` — parametric per-entity resource models
  calibrated to the paper's figures and scaling claims (Tables 1-4);
* :mod:`repro.hardware.latency` — cycle-latency models (CORDIC 20 cycles,
  QRD 440 cycles, channel-estimation latency, burst latency).

The resource and latency models take the
:class:`~repro.core.config.TransceiverConfig` the link runs (the paper's
build by default) and read every size they scale with from it.
"""

from repro.hardware.estimator import (
    FpgaDevice,
    ReceiverResourceModel,
    STRATIX_IV_DEVICE,
    TransmitterResourceModel,
)
from repro.hardware.latency import LatencyModel
from repro.hardware.qrd import QrdArray
from repro.hardware.resources import ResourceReport, ResourceUsage

__all__ = [
    "FpgaDevice",
    "STRATIX_IV_DEVICE",
    "TransmitterResourceModel",
    "ReceiverResourceModel",
    "LatencyModel",
    "QrdArray",
    "ResourceReport",
    "ResourceUsage",
]
