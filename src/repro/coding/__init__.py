"""Channel coding substrate: convolutional coding, Viterbi decoding,
802.11a block (de)interleaving and scrambling."""

from repro.coding.convolutional import (
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
    PUNCTURE_PATTERNS,
)
from repro.coding.interleaver import interleave, deinterleave
from repro.coding.scrambler import Scrambler, pilot_polarity_sequence
from repro.coding.viterbi import ViterbiDecoder

__all__ = [
    "CodeRate",
    "ConvolutionalCode",
    "ConvolutionalEncoder",
    "PUNCTURE_PATTERNS",
    "interleave",
    "deinterleave",
    "Scrambler",
    "pilot_polarity_sequence",
    "ViterbiDecoder",
]
