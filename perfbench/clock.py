"""Reference-speed clock: wall time rescaled by how fast the host runs right now.

On a shared host the same work can take 1.7x longer, for anything from a
fraction of a second to minutes, while a neighbour loads the CPU; raw
wall-clock throughput of a 20 s run then swings by 20-50% between
identical runs.  The benchmark therefore keeps timing a fixed calibration
kernel *while* the workload runs: a 50 ms interval timer interrupts the
workload and times one ~1 ms tick of a small-array add-compare-select loop
plus interpreter arithmetic (the mix of the decoder and QR loops).  A
replicate's wall time, minus the ticks it contained, is then expressed in
*reference seconds*: the time it would have taken at the host speed where
one tick lasts ``REFERENCE_TICK_S``.  The kernel is benchmark code, so a
change to the repository never moves it; only the host's speed does.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

#: Duration of one calibration tick on an uncontended 2-core Xeon host with
#: numpy 2.4; pins the scale of every reported time.
REFERENCE_TICK_S = 0.00075

TICK_INTERVAL_S = 0.05

_STEPS = 80
_RNG = np.random.default_rng(1)
_BRANCH = _RNG.random((_STEPS, 64))
_PREDECESSORS = _RNG.integers(0, 64, (64, 2))
_STATES = np.arange(64)


def tick() -> float:
    """Wall time of one run of the calibration kernel, in seconds."""
    start = time.perf_counter()
    metrics = np.zeros(64)
    for step in range(_STEPS):
        candidates = metrics[_PREDECESSORS] + _BRANCH[step][:, None]
        metrics = candidates[_STATES, np.argmin(candidates, axis=1)]
        metrics -= metrics.min()
    total = 0.0
    for value in range(600):
        total += (value * 0.5) % 7
    return time.perf_counter() - start


def reference_seconds(wall_s: float, tick_s: float) -> float:
    """``wall_s`` spent at a speed where one tick takes ``tick_s``, in reference seconds."""
    return wall_s * REFERENCE_TICK_S / tick_s


class SpeedSampler:
    """Times one calibration tick every ``TICK_INTERVAL_S`` while active.

    The ticks run inside a ``SIGALRM`` handler on the main thread, between
    two bytecodes of whatever the workload is doing; they touch none of
    its state.  ``ticks`` holds ``(start, duration)`` pairs.
    """

    def __init__(self) -> None:
        self.ticks: List[Tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append((start, tick()))

    def __enter__(self) -> "SpeedSampler":
        tick()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, wall_s: float) -> float:
        """Reference seconds of the work done in ``[start, start + wall_s]``.

        Ticks inside the window are subtracted from it and set its speed;
        a window too short to hold a tick uses every tick so far.
        """
        inside = [d for t, d in self.ticks if start <= t <= start + wall_s]
        speed = inside or [d for _, d in self.ticks] or [tick()]
        return reference_seconds(wall_s - sum(inside), sum(speed) / len(speed))
