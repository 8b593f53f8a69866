"""Deterministic random-number helpers.

Every stochastic element of the reproduction (payload bits, fading taps,
noise) takes either a seed or a ``numpy.random.Generator`` so experiments
are repeatable.  ``make_rng`` normalises the two forms; there is no
unseeded form.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed or generator.

    Passing an existing generator returns it unchanged so callers can thread
    a single stream through a whole simulation; passing an integer creates a
    reproducible generator, as does a ``numpy.random.SeedSequence``.
    ``None`` raises :class:`~repro.exceptions.ConfigurationError`: it would
    draw OS entropy, and no result may depend on that.
    """
    if seed is None:
        raise ConfigurationError("a seed or generator is required, got None")
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
