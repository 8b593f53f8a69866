#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_ref --seed 0 --seconds 16 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs every replicate twice, untraced and then under
the layer tracer (see ``layers.py``), checks both produce the same
outcome, and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output check passed.  See ``README.md`` next to this file
for the workloads, metrics and the predictions they encode.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

#: Setup time counts from here: everything after the standard library.
_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

#: Setup is measured in this process and in this many fresh interpreters.
SETUP_PROBES = 2

#: Default seed whose per-point outcomes are pinned in ``golden.json``.
PINNED_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "bursts_per_s": "1/s",
    "points_per_s": "1/s",
    "frames_per_s": "1/s",
    "per": "ratio",
    "loss_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _isolate_environment(scratch: Path) -> None:
    """Single-threaded BLAS/OpenMP, the numpy DSP backend, a private result cache."""
    for variable in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[variable] = "1"
    os.environ["REPRO_DSP_BACKEND"] = "numpy"
    os.environ["REPRO_SIM_CACHE_DIR"] = str(scratch / "cache")


def _import_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="record this run's outcomes in golden.json (seed must be the pinned seed)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pin and (args.trace or args.seed != PINNED_SEED):
        parser.error(f"--pin needs --trace 0 and --seed {PINNED_SEED}")
    return args


def _probe_setup(args: argparse.Namespace) -> float:
    """Setup time of a fresh interpreter doing this run's imports and warm-up."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def _environment() -> Dict[str, object]:
    import numpy

    from repro.dsp.backend import default_backend
    from repro.sim.spec import ENGINE_VERSION

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine_version": ENGINE_VERSION,
        "dsp_backend": default_backend().name,
    }


def _pin_key(args: argparse.Namespace) -> str:
    return f"{args.workload}/seconds={args.seconds:g}/seed={args.seed}"


def _load_pins(engine_version: int) -> Dict[str, list]:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(str(engine_version), {})


def _format_pins(golden: Dict[str, Dict[str, list]]) -> str:
    """``golden.json`` text: one line per pinned run, so diffs stay readable."""
    versions = []
    for version in sorted(golden):
        runs = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(records, separators=(',', ':'))}"
            for key, records in sorted(golden[version].items())
        )
        versions.append(f"{json.dumps(version)}: {{\n{runs}\n}}")
    return "{\n" + ",\n".join(versions) + "\n}\n"


def _check_pins(pinned, outcomes, op_count) -> List[str]:
    """Compare replicate records to the pins; count mismatched ops as failed."""
    problems = []
    if len(pinned) != len(outcomes):
        for outcome in outcomes:
            outcome.failed += op_count(outcome)
        return [f"pinned {len(pinned)} replicates, ran {len(outcomes)}"]
    for index, (expected, outcome) in enumerate(zip(pinned, outcomes)):
        for record, want in zip(outcome.records, expected):
            if record != want:
                outcome.failed += op_count(outcome) // len(outcome.records)
                problems.append(f"replicate {index}: {record} != pinned {want}")
    return problems


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    scratch_root = WORK_DIR / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        _isolate_environment(run_dir)
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args: argparse.Namespace, run_dir: Path) -> int:
    from clock import SpeedSampler

    names = itertools.count()

    def fresh() -> Path:
        path = run_dir / f"r{next(names)}"
        path.mkdir()
        return path

    # Setup: imports, the runner or scheduler, one warm-up burst or frame.
    setup_clock = SpeedSampler()
    with setup_clock:
        _import_checkout()
        from layers import PER_LAYER_METRICS, Tracer, per_layer_metrics
        from workloads import WORKLOADS, p99, replicate_seed

        from repro.sim import engine

        if args.workload not in WORKLOADS:
            sys.exit(
                f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        workload = WORKLOADS[args.workload]
        workload.warm_up(fresh())
        setup_wall = time.perf_counter() - _STARTED
    setup_here = setup_clock.reference_seconds(_STARTED, setup_wall)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    env = _environment()
    n_replicates = workload.n_replicates(args.seconds)

    def op_count(outcome) -> int:
        return {"burst": outcome.bursts, "point": outcome.points, "frame": outcome.frames}[
            workload.op
        ]

    def run_one(replicate: int, tracer=None):
        directory = fresh()
        try:
            return workload.run(replicate_seed(args.seed, replicate), directory, tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    problems: List[str] = []
    outcomes = []
    traced_outcomes = []
    tracer = Tracer()
    cache_misses = 0
    sampler = SpeedSampler()

    def timed(replicate: int, tracer=None):
        outcome = run_one(replicate, tracer)
        outcome.reference_s = sampler.reference_seconds(outcome.started, outcome.elapsed_s)
        return outcome

    with sampler:
        for replicate in range(n_replicates):
            outcome = timed(replicate)
            outcomes.append(outcome)
            if args.trace:
                before = engine._transceiver_for.cache_info().misses
                with tracer:
                    traced = timed(replicate, tracer)
                cache_misses += engine._transceiver_for.cache_info().misses - before
                traced_outcomes.append(traced)
                if traced.records != outcome.records:
                    traced.failed += op_count(traced)
                    problems.append(f"replicate {replicate}: traced outcome differs from untraced")

    pin_key = _pin_key(args)
    pins = _load_pins(env["engine_version"])
    if pin_key in pins:
        problems += _check_pins(pins[pin_key], outcomes, op_count)
        pin_status = "checked"
    else:
        pin_status = "unpinned"
    for outcome in outcomes + traced_outcomes:
        problems += outcome.problems

    every = outcomes + traced_outcomes
    attempted = sum(op_count(outcome) for outcome in every)
    failed = sum(outcome.failed for outcome in every)
    correct = failed == 0 and not problems

    setup_samples: List[float] = []
    if args.trace:
        latencies = [s for o in traced_outcomes for s in o.air_latencies_s]
        metrics = per_layer_metrics(
            tracer,
            ops=sum(op_count(o) for o in traced_outcomes),
            time_scale=sum(o.reference_s for o in traced_outcomes)
            / sum(o.elapsed_s for o in traced_outcomes),
            cache_misses=cache_misses,
            served_frames=sum(o.frames for o in traced_outcomes),
            spurious=sum(o.spurious for o in traced_outcomes),
            air_latency_p99_us=p99(latencies) * 1e6 if latencies else 0.0,
            overhead=statistics.median(
                t.reference_s / o.reference_s for o, t in zip(outcomes, traced_outcomes)
            )
            - 1.0,
        )
        units = PER_LAYER_METRICS
        spans_path = WORK_DIR / "out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
    else:
        setup_samples = [setup_here] + [_probe_setup(args) for _ in range(SETUP_PROBES)]

        def rate(count) -> float:
            return statistics.median(count(o) / o.reference_s for o in outcomes)

        metrics = {
            "setup_s": statistics.median(setup_samples),
            "bursts_per_s": rate(lambda o: o.bursts),
            "points_per_s": rate(lambda o: o.points),
            "frames_per_s": rate(lambda o: o.frames),
            "per": sum(o.frame_errors for o in outcomes) / sum(o.decoded for o in outcomes),
            "loss_rate": sum(o.frames_lost for o in outcomes) / sum(o.frames for o in outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    if args.pin and correct:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
        golden.setdefault(str(env["engine_version"]), {})[pin_key] = [
            o.records for o in outcomes
        ]
        GOLDEN.write_text(_format_pins(golden), encoding="utf-8")
        pin_status = "written"

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "replicates": n_replicates,
        "replicate_wall_s": [o.elapsed_s for o in outcomes],
        "replicate_reference_s": [o.reference_s for o in outcomes],
        "traced_replicate_wall_s": [o.elapsed_s for o in traced_outcomes],
        "traced_replicate_reference_s": [o.reference_s for o in traced_outcomes],
        "tick_s": [d for _, d in sampler.ticks],
        "setup_reference_s": setup_samples,
        "pins": pin_status,
        "problems": problems,
        "environment": env,
        "metrics": metrics,
    }
    out = WORK_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print("environment " + json.dumps({**env, "pins": pin_status}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
