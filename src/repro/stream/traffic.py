"""Per-user downlink traffic generators.

A traffic model turns a frame budget into deterministic arrival times for
one user's queue.  :class:`PoissonTraffic` gives memoryless arrivals at a
mean rate (bursty web-style traffic).

Determinism matters more than realism here: the scheduler seeds every
user's generator from the engine's :class:`numpy.random.SeedSequence`
idiom, so a million-user run is bit-reproducible for any scheduling
order.  A model is any object with ``intervals(n_frames, rng)`` returning
the ``n_frames`` inter-arrival gaps in seconds; :func:`arrival_times`
turns gaps into absolute arrival instants.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import FloatArray
from repro.utils.rng import SeedLike, make_rng


class PoissonTraffic:
    """Poisson arrivals at ``rate_fps`` mean frames per second.

    Inter-arrival gaps are exponential with mean ``1 / rate_fps``, drawn
    from the generator the scheduler seeds per user — two runs with the
    same base seed replay the same arrival pattern.
    """

    def __init__(self, rate_fps: float) -> None:
        if not rate_fps > 0:
            raise ConfigurationError("rate_fps must be positive")
        self.rate_fps = float(rate_fps)

    def intervals(self, n_frames: int, rng: SeedLike) -> FloatArray:
        """Exponential inter-arrival gaps in seconds."""
        if n_frames < 0:
            raise ConfigurationError("n_frames must be non-negative")
        generator = make_rng(rng)
        return generator.exponential(1.0 / self.rate_fps, size=n_frames)


def arrival_times(traffic, n_frames: int, rng: SeedLike) -> np.ndarray:
    """Absolute arrival instants (seconds) for one user's frame sequence.

    The model must return exactly ``n_frames`` finite, non-negative gaps:
    a missing gap would leave a frame without an arrival, and a NaN one
    an arrival the air clock never reaches.
    """
    gaps = np.asarray(traffic.intervals(n_frames, rng=rng), dtype=np.float64)
    if gaps.shape != (n_frames,):
        raise ConfigurationError(
            f"traffic model returned gaps of shape {gaps.shape} for {n_frames} frames"
        )
    if not np.all(np.isfinite(gaps) & (gaps >= 0)):
        raise ConfigurationError(
            "traffic model produced a negative or non-finite inter-arrival gap"
        )
    return np.cumsum(gaps)
