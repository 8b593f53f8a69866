"""Wireless channel substrate.

The paper evaluates its transceiver on an FPGA connected to real converters;
this package provides the synthetic stand-in: composable 4x4 MIMO channel
models (ideal, AWGN, flat and frequency-selective Rayleigh fading) plus
front-end impairments (carrier-frequency offset, sample timing offset,
IQ imbalance, fixed-point word lengths; one :class:`ImpairmentSpec`) so the complete receive datapath — synchronisation, channel
estimation, detection, decoding — is exercised end to end.
"""

from repro.channel.awgn import (
    awgn_noise,
    noise_variance_for_snr,
    occupied_power,
)
from repro.channel.fading import (
    FlatRayleighChannel,
    FrequencySelectiveChannel,
    exponential_power_delay_profile,
    rayleigh_matrix,
)
from repro.channel.impairments import (
    ImpairmentSpec,
    apply_carrier_frequency_offset,
    apply_iq_imbalance,
)
from repro.channel.model import ChannelOutput, IdealChannel, MimoChannel

__all__ = [
    "awgn_noise",
    "noise_variance_for_snr",
    "occupied_power",
    "FlatRayleighChannel",
    "FrequencySelectiveChannel",
    "exponential_power_delay_profile",
    "rayleigh_matrix",
    "ImpairmentSpec",
    "apply_carrier_frequency_offset",
    "apply_iq_imbalance",
    "ChannelOutput",
    "IdealChannel",
    "MimoChannel",
]
