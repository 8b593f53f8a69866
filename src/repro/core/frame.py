"""Burst and result containers shared by the transmitter and receiver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import TransceiverConfig
from repro.core.preamble import BurstLayout
from repro.exceptions import DecodingError
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
        The information bits carried by each spatial stream, shape
        ``(n_streams, n_info_bits)``: the burst's row of the checked
        payload stack.
    layout:
        The burst's sample geometry: preamble sections, data OFDM
        symbols and idle tail.
    config:
        The transceiver configuration the burst was generated with.
    """

    samples: np.ndarray
    info_bits: np.ndarray
    layout: BurstLayout
    config: TransceiverConfig

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
        return self.info_bits.size


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
        The per-subcarrier channel estimate used for detection: the
        burst's row of its stack's estimate (views of its arrays).
    estimated_cfo:
        Carrier frequency offset, in cycles per sample, the receiver
        estimated and removed (0.0 when CFO correction is off).
    mean_pilot_phase:
        Mean common pilot phase over every (symbol, stream), in radians.
    """

    coded: np.ndarray
    equalized: np.ndarray
    lts_start: int
    channel_estimate: object
    estimated_cfo: float
    mean_pilot_phase: float


@dataclass
class ReceiveResult(FrontEndResult):
    """Everything the receiver recovered from one burst: its front-end
    record and the decoded information bits.

    Attributes
    ----------
    decoded_bits:
        Decoded information bits, shape ``(n_streams, n_info_bits)``: one
        row per spatial stream.
    """

    decoded_bits: np.ndarray

    def total_bit_errors(self, reference: np.ndarray) -> int:
        """Total bit errors versus the transmitted information bits,
        ``(n_streams, n_info_bits)``: one
        :func:`~repro.utils.bits.count_bit_errors` over every stream, which
        raises :class:`~repro.exceptions.ConfigurationError` on any other
        shape."""
        return count_bit_errors(reference, self.decoded_bits)


@dataclass(frozen=True)
class BurstOutcome:
    """What one received burst did, scored against the bits that went on air.

    The per-burst record of every link path, built by :meth:`score`: the
    sweep runner folds it into a point's BER/PER counts, the streaming
    scheduler settles each matched frame with it.  ``bit_errors`` are the
    residual errors of a decoded burst, or every one of its
    ``payload_bits`` (all streams) when the receiver gave up; ``cause`` is
    ``None`` for a decoded burst, else the
    :class:`~repro.exceptions.DecodingError` message it gave up with.
    """

    bit_errors: int
    payload_bits: int
    cause: Optional[str] = None

    @property
    def decode_failure(self) -> bool:
        """True when the receiver gave up on the burst."""
        return self.cause is not None

    @property
    def frame_error(self) -> bool:
        """True when the burst was given up on or decoded with bit errors."""
        return self.bit_errors > 0 or self.cause is not None

    @classmethod
    def score(
        cls, received: Union[ReceiveResult, DecodingError], reference: np.ndarray
    ) -> "BurstOutcome":
        """Score a burst's slot of :meth:`~repro.core.receiver.MimoReceiver.decode_stack`
        against the transmitted information bits.  A burst the receiver gave
        up on (a sync miss, a truncated or non-finite window, a rank-deficient
        estimate) loses every payload bit, so BER and PER both see it."""
        payload_bits = np.size(reference)
        if isinstance(received, DecodingError):
            return cls(payload_bits, payload_bits, str(received))
        return cls(received.total_bit_errors(reference), payload_bits)

