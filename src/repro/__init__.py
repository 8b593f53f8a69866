"""repro — reproduction of "An FPGA 1Gbps Wireless Baseband MIMO Transceiver".

A pure-Python reimplementation of the paper's 4x4 MIMO-OFDM baseband
transceiver (SOCC 2012): the complete transmit and receive datapaths, the
CORDIC/QRD channel-estimation pipeline, the wireless channel substrate used
in place of the paper's RF front end, and the FPGA resource/latency models
used in place of the paper's synthesis toolchain.

Quick start::

    from repro import SweepRunner, SweepSpec

    spec = SweepSpec(snr_db=30.0, n_info_bits=512, n_bursts=5, base_seed=3)
    print(SweepRunner(spec, cache=False).run().points[0].bit_error_rate)
"""

from repro.coding.convolutional import CodeRate
from repro.channel.model import MimoChannel
from repro.core.config import OfdmNumerology, TransceiverConfig
from repro.core.frame import ReceiveResult, TransmitBurst
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.hardware.estimator import ReceiverResourceModel, TransmitterResourceModel
from repro.modulation.constellations import Modulation
from repro.sim import ImpairmentSpec, SweepResult, SweepRunner, SweepSpec

__version__ = "1.1.0"

__all__ = [
    "CodeRate",
    "Modulation",
    "MimoChannel",
    "OfdmNumerology",
    "TransceiverConfig",
    "TransmitBurst",
    "ReceiveResult",
    "MimoTransmitter",
    "MimoReceiver",
    "ImpairmentSpec",
    "SweepSpec",
    "SweepResult",
    "SweepRunner",
    "TransmitterResourceModel",
    "ReceiverResourceModel",
    "__version__",
]
