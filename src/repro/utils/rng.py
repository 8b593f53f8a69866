"""Deterministic random-number helpers.

Every stochastic element of the reproduction (payload bits, fading taps,
noise) accepts either a seed or a ``numpy.random.Generator`` so experiments
are repeatable.  ``make_rng`` normalises the two forms.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator or ``None``.

    Passing an existing generator returns it unchanged so callers can thread
    a single stream through a whole simulation; passing an integer creates a
    reproducible generator, as does a ``numpy.random.SeedSequence``;
    passing ``None`` creates a fresh unseeded one.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
