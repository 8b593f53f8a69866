"""The benchmark's workloads: seeded inputs, one measured unit, its outcome.

Every workload is a fixed list of *replicates* derived from ``(seed,
seconds)``: the replicate count is ``seconds`` times a per-workload rate
calibrated so the list takes roughly ``seconds`` on a 2-core host, and
replicate ``r`` draws its physics from base seed ``seed * 1_000_003 + r``.
The work, and so every physics outcome, is therefore a pure function of
the seed and the run length; only the timings depend on the machine.

Replicates are timed one by one, and each replicate's wall time is
rescaled to reference seconds (see ``clock.py``) before the throughput
estimate takes the median over replicates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.dsp.fixedpoint import SAMPLE_FORMAT_16BIT
from repro.sim import ImpairmentSpec, ResultStore, SweepRunner, SweepSpec
from repro.stream import DownlinkScheduler, PoissonTraffic


def replicate_seed(seed: int, replicate: int) -> int:
    """Base seed of one replicate (distinct for every (seed, replicate))."""
    return seed * 1_000_003 + replicate


@dataclass
class Outcome:
    """What one replicate produced and what it cost.

    ``records`` is the replicate's physics fingerprint, compared against
    the pins and between traced and untraced passes: per sweep point
    ``[bit_errors, frame_errors, decode_failures]``, per stream replicate
    ``[served, delivered, lost, spurious]``.  ``decoded`` counts frames
    the receiver decoded (no sync miss, no decode give-up) and
    ``frame_errors`` those of them with residual bit errors;
    ``frames_lost`` counts every frame not delivered error-free.
    """

    started: float
    elapsed_s: float
    bursts: int
    points: int
    frames: int
    decoded: int
    frame_errors: int
    frames_lost: int
    records: List[List[int]]
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    spurious: int = 0
    air_latencies_s: List[float] = field(default_factory=list)
    reference_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One named workload: how many replicates, and how to run one."""

    name: str
    op: str
    replicates_per_s: float
    run: Callable[[int, Path, Optional[object]], Outcome]
    warm_up: Callable[[Path], None]

    def n_replicates(self, seconds: float) -> int:
        return max(1, int(round(seconds * self.replicates_per_s)))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------
def sweep_ref_spec(base_seed: int) -> SweepSpec:
    """Reference burst (default TransceiverConfig) on flat Rayleigh."""
    return SweepSpec(
        snr_db=(20.0, 30.0, 40.0),
        n_info_bits=1200,
        n_bursts=1,
        target_errors=None,
        base_seed=base_seed,
    )


def sweep_gigabit_spec(base_seed: int) -> SweepSpec:
    """Headline mode: 64-QAM r3/4, soft, MMSE, dispersive channel, CFO, 16-bit I/O."""
    return SweepSpec(
        snr_db=(30.0, 35.0),
        modulations=("64qam",),
        code_rates=("3/4",),
        channels=("frequency_selective",),
        detectors=("mmse",),
        impairments=(
            ImpairmentSpec(
                cfo_normalized=1e-3,
                tx_format=SAMPLE_FORMAT_16BIT,
                rx_format=SAMPLE_FORMAT_16BIT,
            ),
        ),
        soft_decision=True,
        n_info_bits=1200,
        n_bursts=1,
        target_errors=None,
        base_seed=base_seed,
    )


def sweep_wide_spec(base_seed: int) -> SweepSpec:
    """320 cheap points: 10 SNRs x 4 modulations x 2 rates x 2 detectors x 2 channels."""
    return SweepSpec(
        snr_db=tuple(float(snr) for snr in range(0, 37, 4)),
        modulations=("bpsk", "qpsk", "16qam", "64qam"),
        code_rates=("1/2", "3/4"),
        stream_counts=(2,),
        channels=("ideal", "flat_rayleigh"),
        detectors=("zf", "mmse"),
        n_info_bits=48,
        n_bursts=1,
        target_errors=None,
        base_seed=base_seed,
    )


def _point_records(result) -> List[List[int]]:
    return [[p.bit_errors, p.frame_errors, p.decode_failures] for p in result.points]


def _runner(spec: SweepSpec, store_dir: Path) -> SweepRunner:
    return SweepRunner(spec, n_workers=1, cache=ResultStore(store_dir), queue="serial")


def _sweep_outcome(spec: SweepSpec, result, started: float, elapsed_s: float) -> Outcome:
    # A burst the receiver gave up on counts as a frame error too.
    failures = sum(p.decode_failures for p in result.points)
    lost = sum(p.frame_errors for p in result.points)
    outcome = Outcome(
        started=started,
        elapsed_s=elapsed_s,
        bursts=result.n_bursts_simulated,
        points=len(result.points),
        frames=result.n_bursts_simulated,
        decoded=result.n_bursts_simulated - failures,
        frame_errors=lost - failures,
        frames_lost=lost,
        records=_point_records(result),
    )
    expected_bits = spec.n_info_bits * spec.stream_counts[0] * spec.n_bursts
    for point in result.points:
        if point.n_bursts != spec.n_bursts or point.total_bits != expected_bits:
            outcome.failed += point.n_bursts
            outcome.problems.append(
                f"point {point.point.index}: {point.n_bursts} bursts, {point.total_bits} bits"
            )
    if result.n_bursts_simulated != spec.n_points * spec.n_bursts:
        outcome.failed += spec.n_points * spec.n_bursts
        outcome.problems.append(f"simulated {result.n_bursts_simulated} bursts")
    return outcome


def _fixed_budget_sweep(make_spec: Callable[[int], SweepSpec]):
    def run(base_seed: int, scratch: Path, tracer=None) -> Outcome:
        spec = make_spec(base_seed)
        runner = _runner(spec, scratch / "store")
        start = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - start
        return _sweep_outcome(spec, result, start, elapsed)

    return run


def _sweep_warm_up(make_spec: Callable[[int], SweepSpec]):
    def warm_up(scratch: Path) -> None:
        full = make_spec(0)
        spec = full.subset(snr_db=full.snr_db[:1], n_bursts=1)
        _runner(spec, scratch / "warm-up").run()

    return warm_up


def run_sweep_wide(base_seed: int, scratch: Path, tracer=None) -> Outcome:
    """Cold pass into an empty store, then a warm pass over the same store.

    Only the cold pass is timed; the warm pass must simulate nothing and
    return the cold pass's points unchanged.
    """
    spec = sweep_wide_spec(base_seed)
    store = scratch / "store"
    start = time.perf_counter()
    cold = _runner(spec, store).run()
    elapsed = time.perf_counter() - start
    outcome = _sweep_outcome(spec, cold, start, elapsed)
    if tracer is not None:
        tracer.phase = "warm"
    try:
        warm = _runner(spec, store).run()
    finally:
        if tracer is not None:
            tracer.phase = "cold"
    if warm.n_bursts_simulated != 0:
        outcome.failed += outcome.points
        outcome.problems.append(f"warm pass simulated {warm.n_bursts_simulated} bursts")
    elif [p.to_dict() for p in warm.points] != [p.to_dict() for p in cold.points]:
        outcome.failed += outcome.points
        outcome.problems.append("warm pass returned different points")
    return outcome


# ---------------------------------------------------------------------------
# streaming downlink
# ---------------------------------------------------------------------------
STREAM_USERS = 200
STREAM_SNR_DB = 20.0


def _scheduler(base_seed: int, n_users: int) -> DownlinkScheduler:
    return DownlinkScheduler(
        n_users=n_users,
        frames_per_user=1,
        traffic=PoissonTraffic(100.0),
        mode="round_robin",
        n_info_bits=256,
        channel="flat_rayleigh",
        snr_db=STREAM_SNR_DB,
        base_seed=base_seed,
    )


def run_stream(base_seed: int, scratch: Path, tracer=None) -> Outcome:
    """One scheduler run: ``STREAM_USERS`` users x 1 frame, Poisson arrivals."""
    start = time.perf_counter()
    scheduler = _scheduler(base_seed, STREAM_USERS)
    report = scheduler.run()
    elapsed = time.perf_counter() - start
    pipeline = scheduler.pipeline
    missed = report.frames_served - (pipeline.frames_detected - report.spurious_detections)
    decoded = report.frames_served - missed - pipeline.frames_lost
    outcome = Outcome(
        started=start,
        elapsed_s=elapsed,
        bursts=report.frames_served,
        points=report.frames_served,
        frames=report.frames_served,
        decoded=decoded,
        frame_errors=report.frames_lost - missed - pipeline.frames_lost,
        frames_lost=report.frames_lost,
        records=[
            [
                report.frames_served,
                report.frames_delivered,
                report.frames_lost,
                report.spurious_detections,
            ]
        ],
        spurious=report.spurious_detections,
        air_latencies_s=[
            sample for stats in report.users.values() for sample in stats.latency_samples
        ],
    )
    if report.frames_delivered + report.frames_lost != report.frames_served:
        outcome.failed += report.frames_served
        outcome.problems.append("delivered + lost != served")
    if report.spurious_detections != 0:
        outcome.failed += report.frames_served
        outcome.problems.append(f"{report.spurious_detections} spurious detections")
    if report.frames_served != STREAM_USERS:
        outcome.failed += STREAM_USERS
        outcome.problems.append(f"served {report.frames_served} of {STREAM_USERS} frames")
    return outcome


def stream_warm_up(scratch: Path) -> None:
    _scheduler(0, 1).run()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep_ref",
            op="burst",
            replicates_per_s=2.0,
            run=_fixed_budget_sweep(sweep_ref_spec),
            warm_up=_sweep_warm_up(sweep_ref_spec),
        ),
        Workload(
            name="sweep_gigabit",
            op="burst",
            replicates_per_s=3.0,
            run=_fixed_budget_sweep(sweep_gigabit_spec),
            warm_up=_sweep_warm_up(sweep_gigabit_spec),
        ),
        Workload(
            name="sweep_wide",
            op="point",
            replicates_per_s=0.2,
            run=run_sweep_wide,
            warm_up=_sweep_warm_up(sweep_wide_spec),
        ),
        Workload(
            name="stream_downlink",
            op="frame",
            replicates_per_s=0.1,
            run=run_stream,
            warm_up=stream_warm_up,
        ),
    )
}


def p99(values: List[float]) -> float:
    import numpy as np

    return float(np.percentile(values, 99.0))
