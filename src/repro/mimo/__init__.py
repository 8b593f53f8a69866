"""MIMO processing substrate: QR decomposition, triangular inversion,
channel estimation and symbol detection."""

from repro.mimo.channel_estimation import (
    ChannelEstimate,
    ChannelEstimator,
    estimate_channel_from_lts,
    invert_channel_stack,
)
from repro.mimo.detector import MmseDetector, zf_detect
from repro.mimo.matrix import frobenius_error, hermitian
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular

__all__ = [
    "ChannelEstimate",
    "ChannelEstimator",
    "estimate_channel_from_lts",
    "invert_channel_stack",
    "MmseDetector",
    "zf_detect",
    "frobenius_error",
    "hermitian",
    "qr_decompose_givens",
    "invert_upper_triangular",
]
