"""Burst and result containers shared by the transmitter and receiver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleLayout
from repro.exceptions import ConfigurationError
from repro.utils.bits import count_bit_errors


@dataclass
class TransmitBurst:
    """Everything the transmitter produced for one burst.

    Attributes
    ----------
    samples:
        Time-domain baseband samples per antenna, shape
        ``(n_antennas, n_samples)``.
    info_bits:
        The information bits carried by each spatial stream (list indexed by
        stream).
    coded_bits:
        The coded, padded bit stream of each spatial stream (before
        interleaving), retained for diagnostics and tests.
    n_ofdm_symbols:
        Number of data OFDM symbols in the burst.
    layout:
        Preamble layout (section offsets) used to build the burst.
    config:
        The transceiver configuration the burst was generated with.
    frequency_symbols:
        Frequency-domain data symbols per stream before the IFFT, shape
        ``(n_streams, n_symbols, fft_size)`` (diagnostic; lets tests check
        EVM without re-deriving the mapping).
    """

    samples: np.ndarray
    info_bits: List[np.ndarray]
    coded_bits: List[np.ndarray]
    n_ofdm_symbols: int
    layout: PreambleLayout
    config: TransceiverConfig
    frequency_symbols: Optional[np.ndarray] = None

    @property
    def n_antennas(self) -> int:
        """Number of transmit antennas."""
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        """Burst length in samples per antenna."""
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        """Burst duration at the configured sample clock."""
        return self.n_samples / self.config.clock_hz

    @property
    def payload_bits(self) -> int:
        """Total information bits across all spatial streams."""
        return int(sum(bits.size for bits in self.info_bits))


@dataclass
class StreamDecodeResult:
    """Per-stream decoding outcome."""

    stream: int
    decoded_bits: np.ndarray
    equalized_symbols: np.ndarray


@dataclass
class FrontEndResult:
    """What the receive front end recovered from one burst, before decoding.

    Attributes
    ----------
    coded:
        Recovered coded values of every stream, shape ``(n_streams,
        coded_length)``: hard bits or LLRs in the (punctured) order the
        encoder emitted, ready for the Viterbi decoder.
    equalized:
        Equalised data symbols, shape ``(n_streams, n_symbols,
        n_data_subcarriers)``.
    lts_start:
        Sample index where the LTS section was found (after time sync).
    channel_estimate:
        The per-subcarrier channel estimate used for detection.
    diagnostics:
        Free-form numeric diagnostics (sync position, pilot phase, CFO).
    """

    coded: np.ndarray
    equalized: np.ndarray
    lts_start: int
    channel_estimate: object
    diagnostics: Dict[str, float] = field(default_factory=dict)


@dataclass
class ReceiveResult:
    """Everything the receiver recovered from one burst.

    Attributes
    ----------
    streams:
        Per-stream decode results (bits + equalised constellation symbols).
    lts_start:
        Sample index where the LTS section was found (after time sync).
    channel_estimate:
        The per-subcarrier channel estimate used for detection.
    diagnostics:
        Free-form numeric diagnostics (sync peak, pilot corrections, ...).
    """

    streams: List[StreamDecodeResult]
    lts_start: int
    channel_estimate: object
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def decoded_bits(self) -> List[np.ndarray]:
        """Decoded information bits per stream."""
        return [stream.decoded_bits for stream in self.streams]

    def total_bit_errors(self, reference: List[np.ndarray]) -> int:
        """Total bit errors versus the transmitted information bits.

        The burst score of every link path: the sweep engine and the
        streaming scheduler both count a decoded burst here, one
        :func:`~repro.utils.bits.count_bit_errors` per stream.
        """
        if len(reference) != len(self.streams):
            raise ConfigurationError("reference must have one bit array per stream")
        return sum(
            count_bit_errors(ref, stream_result.decoded_bits)
            for stream_result, ref in zip(self.streams, reference)
        )

