"""MIMO channel capacity and spectral-efficiency analysis.

The paper motivates MIMO with the channel-capacity limit of single-antenna
transmission ("data transmission rate is limited by channel capacity").
These helpers quantify that argument for the reproduced system:

* :func:`mimo_capacity` — Shannon capacity of one channel matrix with equal
  power allocation (no water-filling, matching a transmitter that has no
  channel state information — the paper's open-loop design);
* :func:`ergodic_mimo_capacity` — its average over i.i.d. Rayleigh draws;
* :func:`spectral_efficiency` — the bits/s/Hz the configured air interface
  actually delivers (information rate over the occupied sample rate);
* :func:`required_snr_for_rate` — the SNR at which the ergodic capacity
  first reaches a target spectral efficiency, i.e. where the 1 Gbps
  operating point becomes information-theoretically feasible.

Malformed input raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import numpy.typing as npt

from repro.core.config import TransceiverConfig
from repro.core.throughput import throughput_for_config
from repro.exceptions import ConfigurationError
from repro.mimo.matrix import hermitian
from repro.utils.rng import SeedLike, make_rng
from repro.utils.units import db_to_linear


def mimo_capacity(channel_matrix: npt.ArrayLike, snr_db: float) -> float:
    """Capacity (bits/s/Hz) of one MIMO channel with equal power allocation.

    ``C = log2 det(I + (SNR / n_tx) * H H^H)`` — the open-loop capacity of a
    channel unknown at the transmitter.
    """
    h = np.asarray(channel_matrix, dtype=np.complex128)
    if h.ndim != 2:
        raise ConfigurationError("channel matrix must be 2-D")
    n_rx, n_tx = h.shape
    snr_linear = db_to_linear(snr_db)
    gram = np.eye(n_rx) + (snr_linear / n_tx) * (h @ hermitian(h))
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise ConfigurationError("capacity computation produced a non-positive determinant")
    return float(logdet / np.log(2.0))


def ergodic_mimo_capacity(
    n_rx: int = 4,
    n_tx: int = 4,
    snr_db: float = 20.0,
    n_realizations: int = 200,
    rng: SeedLike = None,
) -> float:
    """Average capacity over i.i.d. unit-power Rayleigh channel draws.

    All realizations are drawn and evaluated in one batch: a single stacked
    ``slogdet`` over ``(n_realizations, n_rx, n_rx)`` Gram matrices replaces
    the per-draw Python loop.
    """
    if n_realizations <= 0:
        raise ConfigurationError("n_realizations must be positive")
    generator = make_rng(rng)
    h = (
        generator.normal(size=(n_realizations, n_rx, n_tx))
        + 1j * generator.normal(size=(n_realizations, n_rx, n_tx))
    ) / np.sqrt(2.0)
    snr_linear = db_to_linear(snr_db)
    h_conj = np.conj(np.swapaxes(h, -1, -2))  # stacked Hermitian transpose
    gram = np.eye(n_rx)[None] + (snr_linear / n_tx) * (h @ h_conj)
    signs, logdets = np.linalg.slogdet(gram)
    if np.any(signs <= 0):
        raise ConfigurationError("capacity computation produced a non-positive determinant")
    return float(logdets.mean() / np.log(2.0))


def spectral_efficiency(config: Optional[TransceiverConfig] = None) -> float:
    """Delivered spectral efficiency (information bits/s/Hz) of a configuration.

    The occupied bandwidth of the complex-baseband OFDM signal equals the
    sample rate (the paper clocks one sample per 100 MHz cycle), so the
    spectral efficiency is the information rate divided by the clock.
    """
    cfg = config if config is not None else TransceiverConfig()
    model = throughput_for_config(cfg)
    return model.info_bit_rate_bps / cfg.clock_hz


def required_snr_for_rate(
    target_bits_per_hz: float,
    n_rx: int = 4,
    n_tx: int = 4,
    n_realizations: int = 100,
    rng: SeedLike = 0,
    snr_grid_db: Optional[np.ndarray] = None,
) -> float:
    """Smallest SNR (dB) at which the ergodic capacity reaches a target.

    Returns ``inf`` when no grid point reaches the target.
    """
    if target_bits_per_hz <= 0:
        raise ConfigurationError("target_bits_per_hz must be positive")
    grid = (
        np.asarray(snr_grid_db, dtype=np.float64)
        if snr_grid_db is not None
        else np.arange(0.0, 41.0, 2.0)
    )
    generator = make_rng(rng)
    for snr_db in grid:
        capacity = ergodic_mimo_capacity(
            n_rx, n_tx, float(snr_db), n_realizations, rng=generator
        )
        if capacity >= target_bits_per_hz:
            return float(snr_db)
    return float("inf")
