"""``tools/bench_ledger.py --compare`` on synthetic ledgers.

The comparison pairs runs by workload and seed, counts the pairs the new
ledger won, and flags a metric whose median moves the wrong way past its
``BENCHMARK.json`` bound, or a run that was not correct.  It refuses
ledgers that are not one paired recording.  It prints each ledger's
tier-1 run and never flags it.  Recording writes the parent run next to
the change's ledger, with each side's tier-1 run, and overwrites nothing.
Nothing here runs the benchmark or the tier-1 suite.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ledger.py"

END_TO_END = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "per", "unit": "ratio", "better": "lower", "bound": 0.25},
]


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("bench_ledger", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENVIRONMENT = {"seconds": 16, "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}


def _ledger(rates, setups=None, pers=None, correct=True):
    setups = setups or [0.2] * len(rates)
    pers = pers or [0.0] * len(rates)
    runs = [
        {
            "seed": seed,
            "correct": correct,
            "failed": 0,
            "metrics": {"points_per_s": rate, "setup_s": setup, "per": per},
        }
        for seed, (rate, setup, per) in enumerate(zip(rates, setups, pers), start=101)
    ]
    return {
        "ledger": 1,
        "sha": "0" * 40,
        **ENVIRONMENT,
        "workloads": {"sweep_wide": {"runs": runs}},
    }


def _rows(ledger, old, new):
    return {row["metric"]: row for row in ledger.compare(old, new, END_TO_END)}


def test_identical_ledgers_flag_nothing_and_win_no_pair(ledger):
    old = _ledger([700.0, 650.0, 720.0, 690.0])
    rows = _rows(ledger, old, old)
    assert set(rows) == {"points_per_s", "setup_s", "per"}
    assert all(row["gain"] == 0.0 and row["won"] == 0 for row in rows.values())
    assert not any(row["flagged"] for row in rows.values())


def test_gain_pairs_won_and_spread(ledger):
    old = _ledger([600.0, 700.0, 650.0, 750.0])
    new = _ledger([800.0, 690.0, 780.0, 900.0])
    row = _rows(ledger, old, new)["points_per_s"]
    assert row["won"] == 3 and row["pairs"] == 4
    assert row["old"] == pytest.approx(675.0)
    assert row["new"] == pytest.approx(790.0)
    assert row["gain"] == pytest.approx(115.0 / 675.0)
    assert row["spread"] == pytest.approx((712.5 - 637.5) / 675.0)
    assert not row["flagged"]


@pytest.mark.parametrize("factor, flagged", [(0.9, False), (0.79, True)])
def test_higher_is_better_metric_flags_past_its_bound(ledger, factor, flagged):
    old = _ledger([700.0] * 3)
    new = _ledger([700.0 * factor] * 3)
    assert _rows(ledger, old, new)["points_per_s"]["flagged"] is flagged


@pytest.mark.parametrize("factor, flagged", [(1.2, False), (1.3, True), (0.5, False)])
def test_lower_is_better_metric_flags_past_its_bound(ledger, factor, flagged):
    old = _ledger([700.0] * 3, setups=[0.2] * 3)
    new = _ledger([700.0] * 3, setups=[0.2 * factor] * 3)
    assert _rows(ledger, old, new)["setup_s"]["flagged"] is flagged


def test_a_zero_median_flags_any_worsening(ledger):
    old = _ledger([700.0] * 3, pers=[0.0] * 3)
    assert not _rows(ledger, old, old)["per"]["flagged"]
    worse = _ledger([700.0] * 3, pers=[0.1] * 3)
    assert _rows(ledger, old, worse)["per"]["flagged"]


def test_unpaired_ledgers_are_refused(ledger):
    full = _ledger([700.0] * 10)
    assert ledger.unpaired(full, _ledger([800.0] * 10)) == []
    fewer_seeds = _ledger([800.0] * 9)
    assert ledger.unpaired(full, fewer_seeds) == [
        f"sweep_wide: seeds differ: {list(range(101, 111))} vs {list(range(101, 110))}"
    ]
    assert ledger.unpaired(fewer_seeds, fewer_seeds) == ["sweep_wide: 9 pairs, fewer than 10"]
    short_runs = {**_ledger([800.0] * 10), "seconds": 1}
    assert ledger.unpaired(full, short_runs) == ["seconds differs: 16 vs 1"]
    other_numpy = {**_ledger([800.0] * 10), "numpy": "1.26.4"}
    assert ledger.unpaired(full, other_numpy) == ["numpy differs: '2.4.6' vs '1.26.4'"]
    missing_workload = {**full, "workloads": {**full["workloads"], "sweep_ref": {"runs": []}}}
    assert ledger.unpaired(missing_workload, full) == [
        "workloads differ: ['sweep_ref', 'sweep_wide'] vs ['sweep_wide']"
    ]


def test_compare_exit_code(ledger, tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    paths = {}
    for name, content in {
        "base": _ledger([700.0] * 10),
        "ok": _ledger([720.0] * 10),
        "slow": _ledger([500.0] * 10),
        "broken": _ledger([720.0] * 10, correct=False),
        "short": _ledger([720.0] * 3),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    compare = ["--benchmark", str(benchmark), "--compare", str(paths["base"])]
    assert ledger.main(compare + [str(paths["ok"])]) == 0
    assert ledger.main(compare + [str(paths["slow"])]) == 1
    assert "FLAGGED" in capsys.readouterr().out
    assert ledger.main(compare + [str(paths["broken"])]) == 1
    assert "not correct in broken.json: sweep_wide seed=101" in capsys.readouterr().out
    assert ledger.main(compare + [str(paths["short"])]) == 1
    assert "not paired: sweep_wide: seeds differ" in capsys.readouterr().out


def test_record_never_overwrites_a_ledger(ledger, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ledger, "REPO_ROOT", tmp_path)
    (tmp_path / "BENCH_28.parent.json").write_text("{}")
    assert ledger.main(["--number", "28"]) == 2
    assert "refusing to overwrite BENCH_28.parent.json" in capsys.readouterr().err
    assert (tmp_path / "BENCH_28.parent.json").read_text() == "{}"
    assert not (tmp_path / "BENCH_28.json").exists()


def test_record_keeps_the_previous_change_ledger(ledger, tmp_path, monkeypatch):
    # The parent run goes to BENCH_<n>.parent.json, so the ledger the
    # previous change committed as BENCH_<n-1>.json neither blocks the
    # recording nor is overwritten by it.
    monkeypatch.setattr(ledger, "REPO_ROOT", tmp_path)
    previous = tmp_path / "BENCH_28.json"
    previous.write_text("{}")
    recorded = {}

    def fake_run(checkout, command, workload, seed, seconds):
        recorded.setdefault(checkout == tmp_path, []).append((workload, seed))
        return {"seed": seed, "correct": True, "failed": 0, "metrics": {"points_per_s": 1.0}}

    monkeypatch.setattr(ledger, "run_once", fake_run)
    monkeypatch.setattr(
        ledger,
        "run_tier1",
        lambda checkout: {"seconds": 50.0, "passed": 1400 + (checkout == tmp_path)},
    )
    monkeypatch.setattr(ledger, "_git", lambda *args, **kwargs: "0" * 40)
    monkeypatch.setattr(ledger, "_trees", lambda revision, paths: {})
    monkeypatch.setattr(ledger.tarfile, "open", _EmptyTar)
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(
        json.dumps(
            {
                "command": ["true"],
                "paths": ["perfbench"],
                "run_seconds": 16,
                "workloads": [{"name": "sweep_wide"}],
                "end_to_end": END_TO_END,
            }
        )
    )
    assert ledger.main(["--number", "29", "--benchmark", str(benchmark)]) == 0
    assert previous.read_text() == "{}"
    assert sorted(recorded) == [False, True]  # both checkouts ran
    parent = json.loads((tmp_path / "BENCH_29.parent.json").read_text())
    change = json.loads((tmp_path / "BENCH_29.json").read_text())
    assert len(parent["workloads"]["sweep_wide"]["runs"]) == ledger.PAIRS
    assert len(change["workloads"]["sweep_wide"]["runs"]) == ledger.PAIRS
    assert ledger.unpaired(parent, change) == []
    assert parent["tier1"] == {"seconds": 50.0, "passed": 1400}
    assert change["tier1"] == {"seconds": 50.0, "passed": 1401}


def test_compare_prints_tier1_and_never_flags_it(ledger, tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    base = _ledger([700.0] * 10)
    paths = {}
    for name, content in {
        "old": base,
        "fast": {**base, "tier1": {"seconds": 48.0, "passed": 1453}},
        "slow": {**base, "tier1": {"seconds": 480.0, "passed": 1453}},
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    compare = ["--benchmark", str(benchmark), "--compare"]
    # Ledgers recorded before the field existed compare as before.
    assert ledger.main(compare + [str(paths["old"]), str(paths["old"])]) == 0
    assert "tier-1" not in capsys.readouterr().out
    assert ledger.main(compare + [str(paths["old"]), str(paths["fast"])]) == 0
    assert "tier-1 (not bounded): not recorded -> 1453 passed in 48.0 s" in capsys.readouterr().out
    # Ten times slower is reported, not flagged.
    assert ledger.main(compare + [str(paths["fast"]), str(paths["slow"])]) == 0
    out = capsys.readouterr().out
    assert "1453 passed in 48.0 s -> 1453 passed in 480.0 s" in out
    assert "FLAGGED" not in out


class _EmptyTar:
    """Stands in for the parent's ``git archive``: extracts nothing."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def extractall(self, path):
        pass
