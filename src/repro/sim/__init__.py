"""Batched link-simulation engine: typed sweeps, a sweep runner, result store.

``repro.sim`` is the scale layer of the reproduction and the one way to
measure BER/PER: every burst goes on air through
:func:`repro.core.transceiver.transmit_bursts` (a lockstep round's bursts
in one stacked transmit pass) and comes back through
the receiver's shared stage
(:meth:`repro.core.receiver.MimoReceiver.demodulate_stack`), its
detector stage and one decode, and this package
describes whole experiment grids — one operating point is a grid of one —
declaratively and executes them efficiently:

* :class:`~repro.sim.spec.SweepSpec` — a typed, JSON-round-trippable
  description of a sweep over SNR, modulation, code rate, stream count,
  channel model, detector and front-end impairment
  (:class:`~repro.channel.impairments.ImpairmentSpec`: CFO, timing delay,
  IQ imbalance, fixed-point word lengths), and
  :class:`~repro.sim.spec.SweepResult`, its per-point outcome;
* :class:`~repro.sim.runner.SweepRunner` — drains deterministically seeded
  burst batches through one work queue per call (:mod:`repro.sim.queue`:
  in-process or a process pool), stops each grid point early once its
  bit-error target is reached (:meth:`~repro.sim.spec.SweepSpec.stops_at`),
  commits the points that finish in each drain step atomically (one
  ``write`` + ``fsync``) to the append-only per-point
  :class:`~repro.sim.store.ResultStore`, and resumes interrupted or
  overlapping sweeps from it — simulating only the missing remainder;
* :meth:`~repro.sim.runner.SweepRunner.run_adaptive` — adaptive refinement:
  extra bursts go to the points whose 95% Wilson BER intervals
  (:mod:`repro.sim.stats`) are widest, run through the base sweep's
  scheduler, fold and work queue;
* :mod:`~repro.sim.engine` — the burst-level engine: per-burst seeding
  and the work unit the runner fans out, on air through
  :func:`repro.core.transceiver.air_round`, the air path the streaming
  scheduler shares.

Quick start::

    from repro.sim import SweepRunner, SweepSpec

    spec = SweepSpec(
        snr_db=(5, 10, 15, 20, 25, 30),
        modulations=("qpsk", "16qam", "64qam"),
        n_info_bits=512,
        n_bursts=200,
        target_errors=100,
        base_seed=7,
    )
    result = SweepRunner(spec).run()
    print(result.ber_curve(modulation="16qam"))

See ``docs/simulation.md`` for the full engine guide.
"""

from repro.sim.cache import content_key, default_cache_dir
from repro.sim.queue import InProcessQueue, MultiprocessingQueue
from repro.sim.runner import SweepRunner
from repro.sim.spec import (
    ENGINE_VERSION,
    ImpairmentSpec,
    SweepPoint,
    SweepPointResult,
    SweepResult,
    SweepSpec,
)
from repro.sim.stats import (
    allocate_bursts,
    clopper_pearson_interval,
    wilson_interval,
)
from repro.sim.store import ResultStore, default_store_dir

__all__ = [
    "ENGINE_VERSION",
    "ImpairmentSpec",
    "InProcessQueue",
    "MultiprocessingQueue",
    "ResultStore",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "allocate_bursts",
    "clopper_pearson_interval",
    "content_key",
    "default_cache_dir",
    "default_store_dir",
    "wilson_interval",
]
