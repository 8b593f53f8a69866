"""The benchmark's own tests: a tiny run of every workload, traced and not.

Not collected by the repository's default ``pytest`` run (the file name
matches no test pattern), so tier-1 time is unchanged.  Run them with::

    python3 -m pytest perfbench/smoke_checks.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SMOKE_SECONDS = "1"

#: Layers that must do work on a workload (self time > 0) and layers that
#: must not run on it at all.
RUNS_ON = {
    "sweep_ref": {"coding.viterbi", "mimo.qr", "sync.time_sync", "sim.engine", "sim.runner"},
    "sweep_gigabit": {"sync.cfo", "dsp.fixedpoint", "modulation.demapper", "mimo.detector"},
    "sweep_wide": {"sim.spec", "sim.engine", "mimo.rinv"},
    "stream_downlink": {"stream.detector", "stream.pipeline", "stream.scheduler", "coding.viterbi"},
}
ABSENT_ON = {
    "sweep_ref": {"stream.detector", "sync.cfo", "dsp.fixedpoint"},
    "sweep_gigabit": {"stream.detector"},
    "sweep_wide": {"stream.detector", "sync.cfo", "dsp.fixedpoint"},
    "stream_downlink": {"sim.engine", "sim.spec", "sim.runner", "sync.time_sync"},
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(workload: str, trace: str) -> dict:
    completed = _run(
        "--workload", workload, "--seed", "0", "--seconds", SMOKE_SECONDS, "--trace", trace
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert '"pins": "checked"' in lines[-2], lines[-2]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics = _result(workload, "0")
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics(workload):
    metrics = _result(workload, "1")
    assert {name: m["unit"] for name, m in metrics.items()} == layers.PER_LAYER_METRICS
    for layer in RUNS_ON[workload]:
        assert metrics[f"{layer}.ms"]["value"] > 0, layer
    for layer in ABSENT_ON[workload]:
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
    if workload == "stream_downlink":
        assert metrics["stream.detector.match_ratio"]["value"] == 1.0
        assert metrics["stream.scheduler.air_latency_p99_us"]["value"] > 0
    if workload == "sweep_wide":
        assert metrics["sim.store.hit_ratio"]["value"] == 1.0
        assert metrics["sim.engine.transceiver_cache_misses"]["value"] > 0


def test_tracer_restores_every_attribute():
    import importlib

    def current():
        found = []
        for _, module, owner, attribute in layers.WRAPPED:
            target = importlib.import_module(module)
            target = getattr(target, owner) if owner else target
            found.append(vars(target)[attribute])
        return found

    before = current()
    with layers.Tracer():
        during = current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, current()))


def test_pin_mismatch_counts_failed_operations():
    def outcome(records):
        return Outcome(
            started=0.0, elapsed_s=1.0, bursts=3, points=3, frames=3, decoded=3,
            frame_errors=0, frames_lost=0, records=records,
        )

    outcomes = [outcome([[0, 0, 0], [5, 1, 0], [0, 0, 0]])]
    problems = run._check_pins([[[0, 0, 0], [4, 1, 0], [0, 0, 0]]], outcomes, lambda o: o.bursts)
    assert len(problems) == 1 and outcomes[0].failed == 1


def test_fails_without_the_program():
    """In a directory holding only the benchmark, it exits nonzero and prints no result."""
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed = _run(
            "--workload", "sweep_ref", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare
        )
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
