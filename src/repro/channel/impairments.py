"""Analogue/front-end impairments applied to baseband sample streams.

These exercise the correction loops on the receiver datapath: pilot-based
phase correction handles residual carrier offset, and the feed-forward timing
(tau) correction handles fractional sample-timing error.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import amplitude_db_to_gain


def apply_carrier_frequency_offset(samples: np.ndarray, cfo_normalized: float) -> np.ndarray:
    """Apply a carrier-frequency offset of ``cfo_normalized`` cycles/sample.

    ``samples`` may be a 1-D stream or ``(n_antennas, n_samples)``; the same
    rotation is applied to every antenna (a shared local oscillator, as in
    the paper's single-board implementation).
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
