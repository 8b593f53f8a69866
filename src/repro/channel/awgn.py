"""Additive white Gaussian noise helpers."""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.types import ComplexArray
from repro.utils.rng import SeedLike, make_rng
from repro.utils.units import db_to_linear


def noise_variance_for_snr(snr_db: float, signal_power: float = 1.0) -> float:
    """Complex noise variance achieving ``snr_db`` for the given signal power."""
    if signal_power <= 0:
        raise ConfigurationError("signal_power must be positive")
    return signal_power / db_to_linear(snr_db)


def awgn_noise(
    shape: tuple[int, ...] | int,
    variance: float,
    rng: SeedLike = None,
) -> ComplexArray:
    """Circularly-symmetric complex Gaussian noise with total variance ``variance``.

    Raises :class:`~repro.exceptions.ConfigurationError` unless ``variance``
    is finite and non-negative.
    """
    if not np.isfinite(variance) or variance < 0:
        raise ConfigurationError(f"variance must be finite and >= 0, got {variance}")
    generator = make_rng(rng)
    scale = np.sqrt(variance / 2.0)
    real = generator.normal(0.0, 1.0, size=shape)
    imag = generator.normal(0.0, 1.0, size=shape)
    return scale * (real + 1j * imag)


def occupied_power(signal: npt.ArrayLike) -> float:
    """Mean signal power over the *occupied* sample instants.

    A burst observation window can contain sample instants where nothing is
    on the air at all — the zero padding a timing delay prepends, or the
    idle tail after the last OFDM symbol.  Averaging ``|x|**2`` over the
    whole window dilutes the measured power by those silent samples, so an
    SNR calibrated against it silently depends on the delay and
    burst-length axes.  This helper measures power only over instants where
    at least one antenna carries energy: for a 1-D stream, the nonzero
    samples; for an ``(..., n_samples)`` multi-antenna array, the columns
    whose total power across antennas is nonzero (a staggered-preamble slot
    where *some* antennas idle is still occupied air time).

    Returns ``0.0`` when the signal is empty or entirely silent.
    """
    samples = np.asarray(signal, dtype=np.complex128)
    if samples.size == 0:
        return 0.0
    power = np.abs(samples) ** 2
    if samples.ndim == 1:
        occupied = power > 0
    else:
        occupied = power.sum(axis=tuple(range(samples.ndim - 1))) > 0
    if not occupied.any():
        return 0.0
    return float(np.mean(power[..., occupied]))

