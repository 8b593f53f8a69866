"""Fading reference: the tapped-delay-line draw at any tap count.

:class:`~repro.channel.fading.FrequencySelectiveChannel` draws
:data:`~repro.channel.fading.N_TAPS` taps; tests that need a shorter or
longer channel draw its taps here and pass them in as ``taps``.
"""

from __future__ import annotations

import numpy as np

from repro.channel.fading import TAP_DECAY
from repro.utils.rng import SeedLike, make_rng


def rayleigh_taps(n_rx: int, n_tx: int, n_taps: int, rng: SeedLike) -> np.ndarray:
    """``(n_rx, n_tx, n_taps)`` complex Gaussian taps under the exponential
    power-delay profile, drawn exactly as the production channel draws its
    own: at ``n_taps == N_TAPS`` the same seed gives the same taps."""
    powers = np.exp(-np.arange(n_taps) / TAP_DECAY)
    profile = powers / powers.sum()
    generator = make_rng(rng)
    gains = generator.normal(size=(n_rx, n_tx, n_taps)) + 1j * generator.normal(
        size=(n_rx, n_tx, n_taps)
    )
    gains /= np.sqrt(2.0)
    return gains * np.sqrt(profile)[None, None, :]
