"""Rule framework: violations, registry, suppressions, lint drivers.

A rule (:class:`Rule`) sees one parsed module at a time through a
:class:`FileContext` and reports :class:`Violation` objects.

Rules register themselves with the :func:`register` decorator; the CLI and
the test suite both consume the same registry.  Per-line suppressions are
handled here so every rule gets them for free::

    offending_call()  # reprolint: disable=RULE001 -- why this is safe

A suppression must name the rule ids it silences and must carry a written
justification after ``--``; an unjustified suppression is itself a
violation (LINT001), as is one that silences nothing or names an
unknown rule (LINT002) — dead suppressions rot into false confidence.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Matches the tail of a suppression comment.  Group 1: comma-separated
#: rule ids; group 2: the justification (text after ``--``), if any.
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s-]+?)\s*(?:--\s*(.*?))?\s*$"
)

#: Pseudo-rule ids emitted by the framework itself (documented alongside
#: the real rules so ``--list-rules`` shows the complete surface).
META_RULES = {
    "PARSE001": "file could not be parsed as Python",
    "LINT001": "suppression comment has no written justification",
    "LINT002": "suppression comment names an unknown rule or silences nothing",
}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location and a human-readable message."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """The canonical single-line rendering used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """Plain-JSON representation for the ``--format json`` reporter."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# reprolint: disable=...`` comment."""

    line: int
    rule_ids: Tuple[str, ...]
    justification: str


@dataclass
class FileContext:
    """Everything a file rule may inspect about one module."""

    #: Repo-relative posix path used for rule scoping (tests may pass a
    #: *virtual* path so fixture files exercise path-scoped rules).
    relpath: str
    source: str
    tree: ast.AST

    @property
    def in_engine(self) -> bool:
        """True for engine/datapath code (everything under ``src/repro/``)."""
        return self.relpath.startswith("src/repro/")

    @property
    def in_dsp_seam(self) -> bool:
        """True inside the DSP package, where transform arithmetic lives."""
        return self.relpath.startswith("src/repro/dsp/")


class Rule:
    """Base class of the AST rules: each checks one module at a time."""

    rule_id: str = "RULE000"
    name: str = "abstract"
    description: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule scans the module at ``relpath`` at all."""
        return True

    def check(self, ctx: FileContext) -> List[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        """Violation anchored at ``node`` in ``ctx``'s module."""
        return Violation(
            rule=self.rule_id,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_RULES: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule to the registry (instantiates it)."""
    if not issubclass(rule_cls, Rule):
        raise TypeError(f"{rule_cls!r} is not a Rule")
    instance = rule_cls()
    _RULES[instance.rule_id] = instance
    return rule_cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by rule id."""
    return tuple(_RULES[k] for k in sorted(_RULES))


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every ``# reprolint: disable=...`` comment with its line.

    Uses :mod:`tokenize` so string literals that merely *contain* the
    marker text are never mistaken for comments.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if not match:
                continue
            ids = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            suppressions.append(
                Suppression(
                    line=token.start[0],
                    rule_ids=ids,
                    justification=(match.group(2) or "").strip(),
                )
            )
    except tokenize.TokenError:
        # A tokenizer failure surfaces as PARSE001 via ast.parse; no
        # suppression data is better than wrong suppression data.
        return []
    return suppressions


def apply_suppressions(
    relpath: str,
    violations: List[Violation],
    suppressions: List[Suppression],
    active_rules: Optional[frozenset] = None,
) -> List[Violation]:
    """Filter ``violations`` through the file's suppression comments.

    Returns the surviving violations plus the framework's meta-findings:
    LINT001 for a suppression with no justification (the silenced finding
    stays silenced, but the gate still fails until the *why* is written
    down) and LINT002 for a suppression whose rules never fired on its
    line.  ``active_rules`` names the rule ids that actually ran on this
    file; a suppression naming a rule that was not run (``--select``
    subsets, path scoping) is never reported as useless.  A suppression
    naming a rule id that is not registered at all (a typo, a retired
    rule) is always LINT002: it can never silence anything.
    """
    known = {rule.rule_id for rule in all_rules()}
    by_line: Dict[int, List[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)

    used: Dict[Tuple[int, str], bool] = {}
    kept: List[Violation] = []
    for violation in violations:
        matched = None
        for suppression in by_line.get(violation.line, []):
            if violation.rule in suppression.rule_ids:
                matched = suppression
                break
        if matched is None:
            kept.append(violation)
        else:
            used[(matched.line, ",".join(matched.rule_ids))] = True

    for suppression in suppressions:
        key = (suppression.line, ",".join(suppression.rule_ids))
        unknown = [r for r in suppression.rule_ids if r not in known]
        all_rules_ran = active_rules is None or all(
            rule_id in active_rules for rule_id in suppression.rule_ids
        )
        if unknown:
            kept.append(
                Violation(
                    rule="LINT002",
                    path=relpath,
                    line=suppression.line,
                    col=1,
                    message=(
                        f"unknown rule id(s) {', '.join(unknown)}: no "
                        "registered rule can fire here — fix the id or "
                        "delete it (see --list-rules)"
                    ),
                )
            )
        if not used.get(key, False) and (unknown or not all_rules_ran):
            continue
        if not used.get(key, False):
            kept.append(
                Violation(
                    rule="LINT002",
                    path=relpath,
                    line=suppression.line,
                    col=1,
                    message=(
                        "useless suppression: "
                        f"{', '.join(suppression.rule_ids)} did not fire on "
                        "this line — delete the comment or fix its placement"
                    ),
                )
            )
        elif not suppression.justification:
            kept.append(
                Violation(
                    rule="LINT001",
                    path=relpath,
                    line=suppression.line,
                    col=1,
                    message=(
                        "suppression without justification: write why after "
                        "'--', e.g. '# reprolint: disable="
                        f"{suppression.rule_ids[0]} -- <reason>'"
                    ),
                )
            )
    return kept


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def lint_source(
    source: str,
    relpath: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one module's source text under the path ``relpath``.

    This is the unit both the CLI and the fixture tests drive: tests pass
    a *virtual* ``relpath`` (e.g. ``src/repro/channel/fixture.py``) so
    path-scoped rules behave exactly as they would in-tree.
    """
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        return [
            Violation(
                rule="PARSE001",
                path=relpath,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                message=f"syntax error: {error.msg}",
            )
        ]
    ctx = FileContext(relpath=relpath, source=source, tree=tree)
    selected = all_rules() if rules is None else tuple(rules)
    raw: List[Violation] = []
    active = set()
    for rule in selected:
        if rule.applies_to(relpath):
            raw.extend(rule.check(ctx))
            active.add(rule.rule_id)
    raw.sort(key=lambda v: (v.line, v.col, v.rule))
    return apply_suppressions(
        relpath, raw, parse_suppressions(source), frozenset(active)
    )


def lint_files(
    root: Path,
    paths: Iterable[Path],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint concrete files, scoping each by its path relative to ``root``."""
    violations: List[Violation] = []
    for path in paths:
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        source = path.read_text(encoding="utf-8")
        violations.extend(lint_source(source, relpath, rules=rules))
    return violations


def discover_files(targets: Iterable[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    found: List[Path] = []
    for target in targets:
        if target.is_dir():
            found.extend(
                p
                for p in sorted(target.rglob("*.py"))
                if "__pycache__" not in p.parts
                # The lint fixtures violate rules on purpose; they are
                # exercised by tests/test_repro_lint.py under virtual
                # paths, never linted as part of the tree.
                and "lint_fixtures" not in p.parts
            )
        elif target.suffix == ".py":
            found.append(target)
    return found
