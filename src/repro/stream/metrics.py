"""Latency and throughput instrumentation for the streaming service.

The streaming pipeline's first-class outputs are *service* metrics, not
BER waterfalls: per-user enqueue→decode latency percentiles, sustained
frames per second, goodput and loss rate.  Everything here is a plain
dataclass so examples and benchmarks can assert on fields directly and
print them without touching the scheduler internals.

Latency is measured in *simulated* time (the air interface's sample
clock): a frame's latency is the time from its arrival in the user's
queue to the moment its last sample leaves the air — queueing delay plus
transmission time.  Sustained frames/sec is the *wall-clock* rate the
pipeline processed frames at, which is the "how fast does this software
receiver actually run" number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency sample set (seconds).

    Attributes
    ----------
    n:
        Number of latency samples summarised.
    p50 / p95 / p99:
        Linear-interpolation percentiles of the samples.
    mean / worst:
        Mean and maximum latency.
    """

    n: int
    p50: float
    p95: float
    p99: float
    mean: float
    worst: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarise a sequence of latency samples (empty → all zeros)."""
        values = np.asarray(list(samples), dtype=np.float64)
        if values.size == 0:
            return cls(n=0, p50=0.0, p95=0.0, p99=0.0, mean=0.0, worst=0.0)
        p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
        return cls(
            n=int(values.size),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            mean=float(values.mean()),
            worst=float(values.max()),
        )


@dataclass
class UserStats:
    """Per-user delivery record accumulated by the scheduler.

    ``latency_samples`` holds the enqueue→decode latency of every frame
    that was served *and* decoded for this user; :meth:`latency` summarises
    them on demand.

    ``bit_errors`` counts the residual bit errors of *decoded* frames only:
    a frame given up on or never detected adds to ``frames_lost``, not to
    ``bit_errors`` (a lost sweep burst counts every payload bit).
    """

    user: int
    frames_offered: int = 0
    frames_served: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    bits_delivered: int = 0
    bit_errors: int = 0
    latency_samples: List[float] = field(default_factory=list)

    def latency(self) -> LatencySummary:
        """Latency percentile summary of this user's decoded frames."""
        return LatencySummary.from_samples(self.latency_samples)


@dataclass
class ServiceReport:
    """Aggregate outcome of one scheduler run.

    Attributes
    ----------
    n_users:
        Number of user streams multiplexed.
    frames_offered / frames_served / frames_delivered / frames_lost:
        Frames that arrived in queues, went on air, decoded error-free,
        and were lost (sync miss, decode give-up or residual bit errors).
    spurious_detections:
        Detected frame windows that matched no served frame.
    air_time_s:
        Total simulated air-interface occupancy.
    wall_time_s:
        Wall-clock time the run took (the software pipeline's cost).
    sustained_fps:
        ``frames_served / wall_time_s`` — the pipeline's processing rate.
    goodput_bps:
        Error-free delivered information bits per simulated air second.
    loss_rate:
        ``frames_lost / frames_served`` (0 when nothing was served).
    latency:
        Aggregate enqueue→decode latency summary across all users.
    users:
        Per-user delivery records, indexed by user id.
    """

    n_users: int
    frames_offered: int
    frames_served: int
    frames_delivered: int
    frames_lost: int
    spurious_detections: int
    air_time_s: float
    wall_time_s: float
    sustained_fps: float
    goodput_bps: float
    loss_rate: float
    latency: LatencySummary
    users: Dict[int, UserStats] = field(default_factory=dict)

    def user_latency_percentiles(self, quantile: float = 99.0) -> LatencySummary:
        """Distribution of a per-user latency percentile across users.

        Answers "what does the p99 latency of a *typical user* look like":
        each user with at least one decoded frame contributes its own
        ``quantile`` latency, and the returned summary describes how those
        per-user values are distributed across the population.
        """
        per_user = [
            float(np.percentile(np.asarray(stats.latency_samples), quantile))
            for stats in self.users.values()
            if stats.latency_samples
        ]
        return LatencySummary.from_samples(per_user)
