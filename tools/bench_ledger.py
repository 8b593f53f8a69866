#!/usr/bin/env python
"""The ``BENCH_*.json`` ledger: the repository benchmark, parent against change.

Record (``make bench-json BENCH_N=<n>``)::

    python tools/bench_ledger.py --number 29 --parent HEAD

runs the unmodified ``perfbench/run.py --trace 0`` for every workload of
``BENCHMARK.json``, for its ``run_seconds``, over :data:`PAIRS`
alternating parent/change pairs — one seed per pair, from
:data:`FIRST_SEED`, the run order flipping from pair to pair so slow
drift of the host hits both sides alike — and writes two ledgers:
``BENCH_<n>.json`` for this checkout's working tree and
``BENCH_<n>.parent.json`` for the parent revision, which runs from a
``git archive`` copy in a temporary directory (so the previous change's
own ``BENCH_<n-1>.json`` stays as it was).  It never overwrites a ledger:
it refuses to start when either file exists.  Each ledger holds the
commit it starts from (``sha``, with ``dirty`` set for uncommitted
changes), the git tree id of ``src`` and of every benchmark path as
measured (``trees``; after a commit, ``git rev-parse HEAD:src`` names
the same tree), ``nproc``, the numpy and python versions, the run length,
the wall time and passed-test count of one tier-1 run (``pytest -x -q``)
after the pairs (``tier1``) and, per workload, every run's end-to-end
metrics plus each metric's median and quartiles.

Compare::

    python tools/bench_ledger.py --compare BENCH_29.parent.json BENCH_29.json

pairs the two ledgers' runs by workload and seed, reports per metric the
median move, the parent's interquartile range and the pairs the second
ledger won, and flags every metric whose median moves the wrong way by
more than its ``BENCHMARK.json`` bound, and every run that was not
correct.  It prints both tier-1 runs, which no bound covers and which
are never flagged (ledgers recorded before the field existed have none).
It refuses to compare ledgers that are not one paired
recording: different workloads or seeds, fewer than :data:`PAIRS` pairs
of a workload, or a different run length, ``nproc``, numpy or python.
The exit code is 1 when anything is flagged or refused.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

#: Ledger format version.
LEDGER_VERSION = 1
#: Parent/change pairs per workload: the fewest a gain may be claimed on.
PAIRS = 10
#: Seed of the first pair; pair ``k`` runs seed ``FIRST_SEED + k``.
FIRST_SEED = 101
#: Ledger fields two compared ledgers must agree on.
SAME_HOST_FIELDS = ("seconds", "nproc", "numpy", "python")


def _git(*args: str, cwd: Path = REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def _benchmark(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: List[dict], end_to_end: List[dict]) -> Dict[str, dict]:
    """Each end-to-end metric's median and quartiles over ``runs``."""
    summary = {}
    for metric in end_to_end:
        values = [run["metrics"][metric["name"]] for run in runs if metric["name"] in run["metrics"]]
        if values:
            summary[metric["name"]] = {**quartiles(values), "unit": metric["unit"]}
    return summary


def run_once(checkout: Path, command: List[str], workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its correctness and metrics."""
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "correct": False, "failed": -1, "metrics": {}, "error": completed.stderr[-2000:]}
    return {
        "seed": seed,
        "correct": bool(record["correct"]) and completed.returncode == 0,
        "failed": int(record["failed"]),
        "metrics": {name: entry["value"] for name, entry in record["metrics"].items()},
    }


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run (``pytest -x -q``) in ``checkout``: wall seconds and tests passed."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    passed = re.search(r"(\d+) passed", completed.stdout)
    return {"seconds": round(seconds, 2), "passed": int(passed.group(1)) if passed else 0}


def _environment() -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    return {"nproc": os.cpu_count(), "numpy": numpy_version, "python": sys.version.split()[0]}


def _trees(revision: str, paths: List[str]) -> Dict[str, str]:
    """Git tree id of each of ``paths`` at ``revision``."""
    return {path: _git("rev-parse", f"{revision}:{path}") for path in paths}


def record(number: int, parent: str, benchmark_path: Path) -> int:
    benchmark = _benchmark(benchmark_path)
    paths = {
        "parent": REPO_ROOT / f"BENCH_{number}.parent.json",
        "change": REPO_ROOT / f"BENCH_{number}.json",
    }
    existing = [path.name for path in paths.values() if path.exists()]
    if existing:
        print(f"refusing to overwrite {', '.join(existing)}", file=sys.stderr)
        return 2
    seconds = benchmark["run_seconds"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seeds = [FIRST_SEED + pair for pair in range(PAIRS)]
    measured = ["src", *benchmark["paths"]]
    parent_sha = _git("rev-parse", parent)
    head_sha = _git("rev-parse", "HEAD")
    # A commit of the tracked working tree (not stored in any ref), or
    # nothing when the tree is clean.
    snapshot = _git("stash", "create")
    identity = {
        "parent": {"sha": parent_sha, "dirty": False, "trees": _trees(parent_sha, measured)},
        "change": {
            "sha": head_sha,
            "dirty": bool(snapshot),
            "trees": _trees(snapshot or head_sha, measured),
        },
    }
    env = _environment()
    runs: Dict[str, Dict[str, List[dict]]] = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="bench-ledger-") as workdir:
        parent_dir = Path(workdir) / "parent"
        parent_dir.mkdir()
        archive = Path(workdir) / "parent.tar"
        _git("archive", "--output", str(archive), parent_sha)
        with tarfile.open(archive) as tar:
            tar.extractall(parent_dir)
        checkouts = {"parent": parent_dir, "change": REPO_ROOT}
        for workload in workloads:
            for pair, seed in enumerate(seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    outcome = run_once(
                        checkouts[side], benchmark["command"], workload, seed, seconds
                    )
                    runs[side].setdefault(workload, []).append(outcome)
                    print(f"{workload} seed={seed} {side}: {json.dumps(outcome)}", flush=True)
        tier1 = {}
        for side, checkout in checkouts.items():
            tier1[side] = run_tier1(checkout)
            print(f"tier-1 {side}: {json.dumps(tier1[side])}", flush=True)
    for side, path in paths.items():
        ledger = {
            "ledger": LEDGER_VERSION,
            **identity[side],
            **env,
            "seconds": seconds,
            "tier1": tier1[side],
            "workloads": {
                workload: {
                    "runs": entries,
                    "metrics": summarise(entries, benchmark["end_to_end"]),
                }
                for workload, entries in runs[side].items()
            },
        }
        path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


def compare(old: dict, new: dict, end_to_end: List[dict]) -> List[dict]:
    """One row per (workload, metric) present in both ledgers.

    A row carries both medians, the relative move of the median in the
    metric's better direction (``gain``, negative when worse), the old
    ledger's interquartile range relative to its median, the pairs (runs
    of equal seed) the new ledger won out of those compared, and
    ``flagged``: the median moved the wrong way by more than the bound.
    """
    rows = []
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        old_runs = {run["seed"]: run for run in old["workloads"][workload]["runs"]}
        new_runs = {run["seed"]: run for run in new["workloads"][workload]["runs"]}
        seeds = sorted(set(old_runs) & set(new_runs))
        for metric in end_to_end:
            name = metric["name"]
            old_values = [old_runs[s]["metrics"].get(name) for s in seeds]
            new_values = [new_runs[s]["metrics"].get(name) for s in seeds]
            if not seeds or None in old_values or None in new_values:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            old_stats = quartiles(old_values)
            new_median = quartiles(new_values)["median"]
            delta = sign * (new_median - old_stats["median"])
            if not delta:
                gain = 0.0
            elif old_stats["median"]:
                gain = delta / abs(old_stats["median"])
            else:
                gain = float("inf") if delta > 0 else float("-inf")
            spread = (
                (old_stats["q3"] - old_stats["q1"]) / abs(old_stats["median"])
                if old_stats["median"]
                else 0.0
            )
            won = sum(sign * (n - o) > 0 for o, n in zip(old_values, new_values))
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "old": old_stats["median"],
                    "new": new_median,
                    "gain": gain,
                    "spread": spread,
                    "won": won,
                    "pairs": len(seeds),
                    "flagged": -gain > metric["bound"],
                }
            )
    return rows


def incorrect_runs(ledger: dict) -> List[str]:
    """Every run of a ledger that was not correct or had failed operations."""
    return [
        f"{workload} seed={run['seed']}"
        for workload, entry in sorted(ledger["workloads"].items())
        for run in entry["runs"]
        if not run["correct"] or run["failed"]
    ]


def unpaired(old: dict, new: dict) -> List[str]:
    """Why two ledgers are not one paired recording (empty when they are)."""
    problems = [
        f"{field} differs: {old.get(field)!r} vs {new.get(field)!r}"
        for field in SAME_HOST_FIELDS
        if old.get(field) != new.get(field)
    ]
    if set(old["workloads"]) != set(new["workloads"]):
        problems.append(
            f"workloads differ: {sorted(old['workloads'])} vs {sorted(new['workloads'])}"
        )
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        old_seeds = sorted(run["seed"] for run in old["workloads"][workload]["runs"])
        new_seeds = sorted(run["seed"] for run in new["workloads"][workload]["runs"])
        if old_seeds != new_seeds:
            problems.append(f"{workload}: seeds differ: {old_seeds} vs {new_seeds}")
        elif len(set(old_seeds)) < PAIRS:
            problems.append(f"{workload}: {len(set(old_seeds))} pairs, fewer than {PAIRS}")
    return problems


def tier1_summary(ledger: dict) -> str:
    """A ledger's tier-1 run in words (``not recorded`` before the field existed)."""
    entry = ledger.get("tier1")
    if entry is None:
        return "not recorded"
    return f"{entry['passed']} passed in {entry['seconds']:.1f} s"


def _compare_main(old_path: Path, new_path: Path, benchmark: Path) -> int:
    old = json.loads(old_path.read_text(encoding="utf-8"))
    new = json.loads(new_path.read_text(encoding="utf-8"))
    end_to_end = _benchmark(benchmark)["end_to_end"]
    rows = compare(old, new, end_to_end)
    print(f"{'workload':16s} {'metric':13s} {'old':>11s} {'new':>11s} {'gain':>8s} {'old IQR':>8s} won")
    for row in rows:
        mark = "  FLAGGED" if row["flagged"] else ""
        print(
            f"{row['workload']:16s} {row['metric']:13s} {row['old']:11.4g} {row['new']:11.4g} "
            f"{row['gain']:+8.1%} {row['spread']:8.1%} {row['won']}/{row['pairs']}{mark}"
        )
    if "tier1" in old or "tier1" in new:
        print(f"tier-1 (not bounded): {tier1_summary(old)} -> {tier1_summary(new)}")
    problems = [f"not correct in {old_path.name}: {run}" for run in incorrect_runs(old)]
    problems += [f"not correct in {new_path.name}: {run}" for run in incorrect_runs(new)]
    refusals = [f"not paired: {reason}" for reason in unpaired(old, new)]
    for problem in problems + refusals:
        print(problem)
    flagged = [row for row in rows if row["flagged"]]
    print(
        f"{len(flagged)} metric(s) past their bound, {len(problems)} incorrect run(s), "
        f"{len(refusals)} pairing problem(s)"
    )
    return 1 if flagged or problems or refusals else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument(
        "--benchmark", type=Path, default=BENCHMARK, help="BENCHMARK.json to run and bound by"
    )
    parser.add_argument(
        "--number", type=int, help="write BENCH_<n>.json and BENCH_<n>.parent.json"
    )
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare_main(*args.compare, args.benchmark)
    if args.number is None:
        parser.error("give --number to record, or --compare OLD NEW")
    return record(args.number, args.parent, args.benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
