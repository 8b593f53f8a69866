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
* :mod:`repro.hardware.clock` — the paper's 100 MHz clock domain;
* :mod:`repro.hardware.memory` — behavioural models of the memory structures
  the architecture relies on (ROM, dual-port RAM, ping-pong buffer, circular
  buffer);
* :mod:`repro.hardware.jesd204` — the JESD204A-style converter interface
  framing model.
"""

from repro.hardware.clock import ClockDomain
from repro.hardware.estimator import (
    FpgaDevice,
    PAPER_CONFIG,
    ReceiverResourceModel,
    ResourceModelConfig,
    STRATIX_IV_DEVICE,
    TransmitterResourceModel,
    qrd_cordic_cell_count,
)
from repro.hardware.jesd204 import Jesd204Framer
from repro.hardware.latency import LatencyModel, ReceiverLatencyBreakdown
from repro.hardware.memory import (
    CircularBuffer,
    DualPortRam,
    PingPongBuffer,
    Rom,
)
from repro.hardware.resources import ResourceReport, ResourceUsage

__all__ = [
    "ClockDomain",
    "FpgaDevice",
    "PAPER_CONFIG",
    "ResourceModelConfig",
    "STRATIX_IV_DEVICE",
    "TransmitterResourceModel",
    "ReceiverResourceModel",
    "qrd_cordic_cell_count",
    "Jesd204Framer",
    "LatencyModel",
    "ReceiverLatencyBreakdown",
    "CircularBuffer",
    "DualPortRam",
    "PingPongBuffer",
    "Rom",
    "ResourceReport",
    "ResourceUsage",
]
