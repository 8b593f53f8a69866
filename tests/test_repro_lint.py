"""Tests for ``repro_lint`` — every shipped rule proven to fire and to stay
quiet, suppression handling, and the tree-is-clean integration gate that
makes ``make lint`` part of tier-1."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools" / "lint"))

from repro_lint import lint_source  # noqa: E402
from repro_lint.core import parse_suppressions  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def lint_fixture(name: str, virtual_path: str):
    """Lint one fixture file under a virtual in-tree path."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, virtual_path)


# ----------------------------------------------------------------------
# Per-rule fixtures: one violating + one clean file per rule, plus the
# suppression cases.
# ----------------------------------------------------------------------

FIXTURE_CASES = [
    # (fixture, virtual path, expected rule -> count)
    ("seam_bad.py", "src/repro/channel/fixture.py", {"SEAM001": 2}),
    ("seam_bad.py", "src/repro/dsp/fixture.py", {}),  # the seam itself is exempt
    ("seam_ok.py", "src/repro/channel/fixture.py", {}),
    ("det_rng_bad.py", "src/repro/sim/fixture.py", {"DET001": 4}),
    ("det_rng_bad.py", "examples/fixture.py", {}),  # engine-scoped rule
    ("det_rng_ok.py", "src/repro/sim/fixture.py", {}),
    ("det_clock_bad.py", "src/repro/sim/fixture.py", {"DET002": 2}),
    ("det_clock_ok.py", "src/repro/sim/fixture.py", {}),
    ("exc_bare_bad.py", "examples/fixture.py", {"EXC001": 2}),
    ("exc_bare_bad.py", "src/repro/stream/fixture.py", {"EXC001": 2}),
    ("exc_bare_ok.py", "examples/fixture.py", {}),
    ("exc_linalg_bad.py", "src/repro/mimo/fixture.py", {"EXC002": 3}),
    ("exc_linalg_ok.py", "src/repro/mimo/fixture.py", {}),
    ("exc_builtin_bad.py", "src/repro/sim/fixture.py", {"EXC003": 6}),
    ("exc_builtin_bad.py", "tools/fixture.py", {}),  # engine-scoped rule
    ("exc_builtin_ok.py", "src/repro/sim/fixture.py", {}),
    # The listed site passes only at its own path and in its own method.
    ("exc_builtin_allowed.py", "src/repro/dsp/fixedpoint.py", {"EXC003": 2}),
    ("exc_builtin_allowed.py", "src/repro/dsp/fixture.py", {"EXC003": 3}),
    ("suppressed_ok.py", "src/repro/channel/fixture.py", {}),
    ("suppressed_unjustified.py", "src/repro/channel/fixture.py", {"LINT001": 1}),
    ("suppressed_unused.py", "src/repro/channel/fixture.py", {"LINT002": 1}),
]


@pytest.mark.parametrize(
    "fixture, virtual_path, expected",
    FIXTURE_CASES,
    ids=[f"{name}@{path.split('/')[-2]}-{i}" for i, (name, path, _) in enumerate(FIXTURE_CASES)],
)
def test_fixture_findings(fixture, virtual_path, expected):
    violations = lint_fixture(fixture, virtual_path)
    counts: dict = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    assert counts == expected, [v.format() for v in violations]


def test_violations_carry_location_and_message():
    violations = lint_fixture("seam_bad.py", "src/repro/channel/fixture.py")
    assert all(v.line > 0 and v.col > 0 for v in violations)
    assert any("numpy.fft.fft" in v.message for v in violations)
    assert any("numpy.fft.ifft" in v.message for v in violations)


# ----------------------------------------------------------------------
# Suppression parsing
# ----------------------------------------------------------------------

def test_suppression_parsing_reads_ids_and_justification():
    source = "x = 1  # reprolint: disable=SEAM001,DET001 -- because reasons\n"
    (suppression,) = parse_suppressions(source)
    assert suppression.line == 1
    assert suppression.rule_ids == ("SEAM001", "DET001")
    assert suppression.justification == "because reasons"


def test_suppression_marker_inside_string_is_not_a_suppression():
    source = 's = "# reprolint: disable=SEAM001 -- not a comment"\n'
    assert parse_suppressions(source) == []


def test_parse_error_reported_as_parse001():
    violations = lint_source("def broken(:\n", "src/repro/sim/fixture.py")
    assert [v.rule for v in violations] == ["PARSE001"]


def test_suppression_for_unselected_rule_is_not_flagged_useless():
    """A rule-subset run must not call other rules' suppressions useless.

    With ``--select SEAM001`` the DET001 suppressions in the tree never get
    a chance to fire; flagging them LINT002 would make every subset run
    red.  Only a suppression whose *executed* rules all stayed silent is
    a dead comment.
    """
    from repro_lint.rules.seam import SeamPurityRule

    source = (
        "import numpy as np\n"
        "x = np.random.normal()"
        "  # reprolint: disable=DET001 -- fixture justification\n"
    )
    relpath = "src/repro/sim/fixture.py"
    # DET001 not in the selected rule set: suppression silently ignored.
    only_seam = lint_source(source, relpath, rules=[SeamPurityRule()])
    assert only_seam == []
    # Full rule set: the suppression is used, so nothing is reported.
    assert lint_source(source, relpath) == []
    # A genuinely dead suppression still trips LINT002 under the full set.
    dead = lint_source(
        "x = 1  # reprolint: disable=DET001 -- nothing here\n", relpath
    )
    assert [v.rule for v in dead] == ["LINT002"]


def test_suppression_of_an_unknown_rule_is_lint002():
    """A typo'd or retired rule id can never silence anything."""
    relpath = "src/repro/channel/fixture.py"
    typo = lint_source("x = 1  # reprolint: disable=NOPE999 -- typo\n", relpath)
    assert [v.rule for v in typo] == ["LINT002"]
    assert "NOPE999" in typo[0].message
    # Reported even when the rest of the comment does suppress a finding.
    mixed = lint_source(
        "import numpy as np\n"
        "y = np.fft.fft([1.0])"
        "  # reprolint: disable=SEAM001,NOPE999 -- fixture justification\n",
        relpath,
    )
    assert [(v.rule, v.line) for v in mixed] == [("LINT002", 2)]
    assert "NOPE999" in mixed[0].message


# ----------------------------------------------------------------------
# Integration: the tree is lint-clean (this is the tier-1 gate)
# ----------------------------------------------------------------------

def _lint_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "tools" / "lint")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro_lint", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_tree_is_lint_clean():
    result = _lint_cli("src", "tools", "examples", "tests")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK" in result.stdout


def test_cli_json_report_shape():
    result = _lint_cli("--format", "json", "src")
    payload = json.loads(result.stdout)
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["n_files"] > 40
    assert payload["violations"] == []


def test_cli_exit_code_on_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n", encoding="utf-8")
    result = _lint_cli(str(bad))
    assert result.returncode == 1
    assert "EXC001" in result.stdout


def test_cli_select_of_an_unknown_rule_is_a_usage_error():
    result = _lint_cli("--select", "NOPE999", "src")
    assert result.returncode == 2
    assert "NOPE999" in result.stderr
    assert "SEAM001" in result.stderr  # the valid ids are listed


def test_cli_lists_exactly_the_shipped_rules():
    result = _lint_cli("--list-rules")
    assert result.returncode == 0
    listed = {line.split()[0] for line in result.stdout.splitlines() if line[:1].isupper()}
    assert listed == {
        "SEAM001", "DET001", "DET002", "EXC001", "EXC002", "EXC003",
        "LINT001", "LINT002", "PARSE001",
    }
