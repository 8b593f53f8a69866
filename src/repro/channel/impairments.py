"""Analogue/front-end impairments applied to baseband sample streams.

These exercise the correction loops on the receiver datapath: pilot-based
phase correction handles residual carrier offset, and the feed-forward timing
(tau) correction handles fractional sample-timing error.
:class:`ImpairmentSpec` describes one front-end condition; the channel
applies its air half with the functions below, the receiver takes its RX
word lengths (:func:`repro.core.transceiver.impaired_config`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.dsp.fixedpoint import (
    FixedPointFormat,
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
)
from repro.exceptions import ConfigurationError, integer_at_least
from repro.utils.units import amplitude_db_to_gain


def apply_carrier_frequency_offset(samples: np.ndarray, cfo_normalized: float) -> np.ndarray:
    """Apply a carrier-frequency offset of ``cfo_normalized`` cycles/sample.

    ``samples`` may be a 1-D stream or ``(n_antennas, n_samples)``; the same
    rotation is applied to every antenna (a shared local oscillator, as in
    the paper's single-board implementation).  The receiver's CFO
    corrector removes an estimate by applying its negative.
    """
    x = np.asarray(samples, dtype=np.complex128)
    n = x.shape[-1]
    rotation = np.exp(2j * np.pi * cfo_normalized * np.arange(n))
    return x * rotation


def apply_iq_imbalance(
    samples: np.ndarray, amplitude_imbalance_db: float = 0.0, phase_imbalance_deg: float = 0.0
) -> np.ndarray:
    """Apply transmit/receive IQ gain and phase imbalance.

    Modelled as ``y = alpha * x + beta * conj(x)`` with the standard
    amplitude/phase parameterisation.
    """
    x = np.asarray(samples, dtype=np.complex128)
    g = amplitude_db_to_gain(amplitude_imbalance_db)
    phi = np.deg2rad(phase_imbalance_deg)
    alpha = 0.5 * (1.0 + g * np.exp(1j * phi))
    beta = 0.5 * (1.0 - g * np.exp(1j * phi))
    return alpha * x + beta * np.conj(x)


@dataclass(frozen=True)
class ImpairmentSpec:
    """One front-end condition of a sweep cell, the scheduler or a channel.

    All defaults describe the ideal front end, so partial specs read
    naturally: ``ImpairmentSpec(cfo_normalized=1e-3)`` is "CFO only".

    Parameters
    ----------
    cfo_normalized:
        Carrier-frequency offset in cycles per sample (the paper's 100 MHz
        clock makes ``1e-4`` a 10 kHz offset).  A non-zero value makes the
        sweep engine and the scheduler enable the receiver's preamble-based
        CFO estimator (``TransceiverConfig.correct_cfo``).
    sample_delay:
        Non-negative integer sample-timing delay of the burst; exercises
        the time synchroniser's search.  The observation window grows by
        the delay, so the burst tail is never lost.
    iq_amplitude_db / iq_phase_deg:
        Receive-mixer IQ amplitude (dB) and phase (degrees) imbalance.  As
        a receive-side impairment it runs *after* noise injection — the
        mixer distorts antenna noise too.

    ``cfo_normalized``, ``iq_amplitude_db`` and ``iq_phase_deg`` must be
    finite: a NaN or infinite value raises
    :class:`~repro.exceptions.ConfigurationError` here rather than
    turning every burst of the sweep into a decode failure.
    tx_format:
        Optional :class:`~repro.dsp.fixedpoint.FixedPointFormat` quantising
        the transmit samples (the DAC word length).
    rx_format:
        Optional format quantising the received sample stream at the
        receiver input (``TransceiverConfig.rx_sample_format`` — the
        paper's 16-bit I/Q interface).
    rx_multiplier_format:
        Optional format quantising the receiver's FFT outputs
        (``TransceiverConfig.rx_multiplier_format`` — the paper's 18-bit
        embedded multipliers).
    """

    cfo_normalized: float = 0.0
    sample_delay: int = 0
    iq_amplitude_db: float = 0.0
    iq_phase_deg: float = 0.0
    tx_format: Optional[FixedPointFormat] = None
    rx_format: Optional[FixedPointFormat] = None
    rx_multiplier_format: Optional[FixedPointFormat] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cfo_normalized", float(self.cfo_normalized))
        object.__setattr__(
            self, "sample_delay", integer_at_least("sample_delay", self.sample_delay, 0)
        )
        object.__setattr__(self, "iq_amplitude_db", float(self.iq_amplitude_db))
        object.__setattr__(self, "iq_phase_deg", float(self.iq_phase_deg))
        for name in ("cfo_normalized", "iq_amplitude_db", "iq_phase_deg"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        for name in ("tx_format", "rx_format", "rx_multiplier_format"):
            object.__setattr__(
                self, name, FixedPointFormat.coerce(getattr(self, name), name)
            )

    # ------------------------------------------------------------------
    @classmethod
    def quantized(cls, word_length: int, **changes) -> "ImpairmentSpec":
        """Symmetric TX/RX sample quantisation at ``word_length`` bits.

        Uses ``Q(word_length, word_length - 2)`` — the paper's 16-bit
        sample format shrunk bit by bit while keeping its ±2.0 full-scale
        range — which is what a BER-vs-word-length sensitivity curve wants.
        Extra keyword arguments set other impairment fields.
        """
        fmt = FixedPointFormat(word_length=word_length, frac_bits=word_length - 2)
        return cls(tx_format=fmt, rx_format=fmt, **changes)

    @classmethod
    def paper_frontend(cls, **changes) -> "ImpairmentSpec":
        """The paper's fixed-point interfaces: 16-bit samples, 18-bit multipliers."""
        return cls(
            tx_format=SAMPLE_FORMAT_16BIT,
            rx_format=SAMPLE_FORMAT_16BIT,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT,
            **changes,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (nested formats become dicts)."""
        payload = {item.name: getattr(self, item.name) for item in fields(self)}
        for name in ("tx_format", "rx_format", "rx_multiplier_format"):
            if payload[name] is not None:
                payload[name] = payload[name].to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ImpairmentSpec":
        """Rebuild a spec from :meth:`to_dict` output (loss-free)."""
        return cls(**payload)
