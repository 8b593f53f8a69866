"""FPGA hardware substrate models.

The paper's evaluation (Section V) is an FPGA synthesis report: ALUTs,
registers, memory bits and 18-bit DSP blocks per entity, a 100 MHz clock and
pipeline latencies.  Because we have no FPGA or vendor toolchain, this
package provides the substitute substrate:

* :mod:`repro.hardware.resources` — report dataclasses (the "synthesis
  report" format);
* :mod:`repro.hardware.estimator` — parametric per-entity resource models
  calibrated to the paper's figures and scaling claims (Tables 1-4);
* :mod:`repro.hardware.latency` — cycle-latency models (CORDIC 20 cycles,
  QRD 440 cycles, channel-estimation latency, burst latency);
* :mod:`repro.hardware.clock` — the paper's 100 MHz clock rate, which every
  :class:`~repro.core.config.TransceiverConfig` runs at;
* :mod:`repro.hardware.memory` — behavioural models of the memory structures
  the architecture relies on (ROM, dual-port RAM, ping-pong buffer, circular
  buffer);
* :mod:`repro.hardware.jesd204` — the JESD204A-style converter interface
  framing model.

The resource and latency models take the
:class:`~repro.core.config.TransceiverConfig` the link runs (the paper's
build by default) and read every size they scale with from it.
"""

from repro.hardware.estimator import (
    FpgaDevice,
    ReceiverResourceModel,
    STRATIX_IV_DEVICE,
    TransmitterResourceModel,
    qrd_cordic_cell_count,
)
from repro.hardware.jesd204 import Jesd204Framer
from repro.hardware.latency import LatencyModel
from repro.hardware.memory import (
    CircularBuffer,
    DualPortRam,
    PingPongBuffer,
    Rom,
)
from repro.hardware.resources import ResourceReport, ResourceUsage

__all__ = [
    "FpgaDevice",
    "STRATIX_IV_DEVICE",
    "TransmitterResourceModel",
    "ReceiverResourceModel",
    "qrd_cordic_cell_count",
    "Jesd204Framer",
    "LatencyModel",
    "CircularBuffer",
    "DualPortRam",
    "PingPongBuffer",
    "Rom",
    "ResourceReport",
    "ResourceUsage",
]
