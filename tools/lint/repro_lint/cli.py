"""Command-line front end: discovery and reporting.

Usage (also wired as ``make lint``)::

    python -m repro_lint src tools examples tests  # text report, exit 1 on findings
    python -m repro_lint --format json src          # machine-readable report
    python -m repro_lint --list-rules               # rule catalog

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro_lint import core
from repro_lint.core import META_RULES, Violation

#: Repo root inferred from this file's location
#: (``tools/lint/repro_lint/cli.py`` -> three parents up).
DEFAULT_ROOT = Path(__file__).resolve().parents[3]


def _selected_ids(selected: Optional[str]) -> Optional[Set[str]]:
    if not selected:
        return None
    return {rule_id.strip() for rule_id in selected.split(",") if rule_id.strip()}


def _select(rules, wanted: Optional[Set[str]]):
    if wanted is None:
        return rules
    return tuple(rule for rule in rules if rule.rule_id in wanted)


def _report_text(violations: List[Violation], n_files: int) -> None:
    for violation in violations:
        print(violation.format())
    n_rules = len(core.all_rules())
    if violations:
        print(
            f"repro_lint: {len(violations)} violation(s) "
            f"({n_files} files scanned, {n_rules} rules)"
        )
    else:
        print(f"repro_lint: OK ({n_files} files scanned, {n_rules} rules)")


def _report_json(violations: List[Violation], n_files: int) -> None:
    print(
        json.dumps(
            {
                "violations": [violation.to_dict() for violation in violations],
                "summary": {
                    "n_violations": len(violations),
                    "n_files": n_files,
                    "n_rules": len(core.all_rules()),
                    "ok": not violations,
                },
            },
            indent=2,
        )
    )


def _list_rules() -> None:
    for rule in core.all_rules():
        print(f"{rule.rule_id}  [file]  {rule.name}")
        print(f"    {rule.description}")
    for rule_id, description in sorted(META_RULES.items()):
        print(f"{rule_id}  [meta]  {description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="AST-based invariant checker for the repro engine",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tools examples tests)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=DEFAULT_ROOT,
        help="repository root used for rule scoping",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if args.list_rules:
        _list_rules()
        return 0

    wanted = _selected_ids(args.select)
    known = sorted(rule.rule_id for rule in core.all_rules())
    unknown = sorted(wanted - set(known)) if wanted is not None else []
    if unknown:
        print(
            f"repro_lint: unknown rule id(s) in --select: {', '.join(unknown)}"
            f" (valid: {', '.join(known)})",
            file=sys.stderr,
        )
        return 2

    targets = [Path(p) for p in args.paths] or [
        root / "src", root / "tools", root / "examples", root / "tests"
    ]
    missing = [str(t) for t in targets if not t.exists()]
    if missing:
        print(f"repro_lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    files = core.discover_files(targets)
    violations = core.lint_files(root, files, rules=_select(core.all_rules(), wanted))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    if args.fmt == "json":
        _report_json(violations, len(files))
    else:
        _report_text(violations, len(files))
    return 1 if violations else 0
