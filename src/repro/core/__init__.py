"""Core of the reproduction: the 4x4 MIMO-OFDM baseband transceiver.

This package ties the substrates together into the system the paper
describes: :class:`~repro.core.transmitter.MimoTransmitter` (Fig. 1),
:class:`~repro.core.receiver.MimoReceiver` (Fig. 5),
:func:`~repro.core.transceiver.transmit_bursts` (the on-air step between
them) and the information bit rate behind the 1 Gbps claim
(:attr:`~repro.core.config.TransceiverConfig.info_bit_rate_bps`).  BER/PER
over many bursts is measured by the sweep engine in :mod:`repro.sim`.
"""

from repro.core.config import OfdmNumerology, TransceiverConfig
from repro.core.frame import ReceiveResult, TransmitBurst
from repro.core.pilots import PilotProcessor
from repro.core.preamble import PreambleGenerator
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter

__all__ = [
    "OfdmNumerology",
    "TransceiverConfig",
    "TransmitBurst",
    "ReceiveResult",
    "PilotProcessor",
    "PreambleGenerator",
    "MimoTransmitter",
    "MimoReceiver",
]
