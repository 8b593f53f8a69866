#!/usr/bin/env python
"""Documentation gate: module docstrings, the required doc pages and the
qualified names the docs and docstrings cite.

Four checks, run via ``make docs-check``:

1. every public module in ``src/repro`` carries a non-empty module
   docstring (the tree is walked and AST-parsed; files whose name or
   parent package starts with an underscore are exempt);
2. every page in ``REQUIRED_DOCS`` exists under ``docs/``, is non-empty,
   is linked from the README (a guide nobody can find is as good as
   missing), and contains the section headings ``REQUIRED_SECTIONS``
   promises for it (a page that silently drops its batched-datapath or
   result-store section would leave the code undocumented while the
   gate stays green);
3. every backticked, fully qualified ``repro.…`` name in ``README.md`` and
   ``docs/*.md`` imports and resolves (a page that names a deleted
   function sends its reader to code that no longer exists), and so does
   every backticked short ``Name.member`` whose ``Name`` the ``repro``
   package or the ``__all__`` of one of its subpackages exports (such as
   ``ReceiveResult.total_bit_errors``);
4. every Sphinx cross-reference to a ``repro.…`` target in the sources
   of ``src/repro`` (the ``:class:``, ``:meth:``, ``:func:``, ``:data:``,
   ``:attr:`` and ``:mod:`` roles, with or without the ``~`` prefix)
   resolves, so a deletion cannot leave a docstring pointing at it.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Doc pages the repo promises: each must exist, be non-empty and be
#: linked from README.md.
REQUIRED_DOCS = (
    "docs/simulation.md",
    "docs/streaming.md",
    "docs/linting.md",
)

#: Section headings each doc page promises (matched as substrings of the
#: page text, so heading levels can move without breaking the gate).
REQUIRED_SECTIONS: dict[str, tuple[str, ...]] = {
    "docs/simulation.md": (
        "The batched transmit path",
        "The per-point result store",
        "Adaptive refinement and confidence intervals",
    ),
    "docs/streaming.md": (
        "Air-interface cost",
    ),
    "docs/linting.md": (
        "Rule catalog",
        "Suppressing a finding",
        "Pinning the golden corpus",
        "Runtime contracts",
    ),
}


#: A backticked, fully qualified name such as ``repro.sim.SweepSpec``; a
#: trailing argument list, as in ``repro.core.transceiver.air_round(...)``, is
#: allowed and ignored.
QUALIFIED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")

#: A backticked short citation such as ``ReceiveResult.total_bit_errors``
#: or ``MimoReceiver.receive_stack(...)``; only those whose first name is
#: an exported ``repro`` name are checked, so ``np.sum`` passes unread.
SHORT_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")

#: A Sphinx cross-reference role whose target is a ``repro.…`` name, such
#: as ``:meth:`~repro.core.receiver.MimoReceiver.decode```.
CROSS_REFERENCE = re.compile(
    r":(?:class|meth|func|data|attr|mod):`~?(repro(?:\.[A-Za-z_]\w*)+)`"
)


def public_modules(root: Path) -> list[Path]:
    """Every ``.py`` file in the tree that is part of the public surface.

    ``__init__.py`` files are public (they document the package); any other
    name starting with an underscore is private and exempt.
    """
    modules = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        private = any(
            part.startswith("_") and part != "__init__.py" for part in parts
        )
        if not private:
            modules.append(path)
    return modules


def missing_docstrings(modules: list[Path]) -> list[Path]:
    """Modules whose AST has no (or an empty) module docstring."""
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docstring = ast.get_docstring(tree)
        if not docstring or not docstring.strip():
            offenders.append(path)
    return offenders


def missing_required_docs() -> list[str]:
    """Problems with the promised doc pages (empty list when all is well)."""
    problems = []
    readme = REPO_ROOT / "README.md"
    readme_text = readme.read_text(encoding="utf-8") if readme.is_file() else ""
    for relative in REQUIRED_DOCS:
        page = REPO_ROOT / relative
        if not page.is_file():
            problems.append(f"{relative}: missing")
            continue
        text = page.read_text(encoding="utf-8")
        if not text.strip():
            problems.append(f"{relative}: empty")
            continue
        if relative not in readme_text:
            problems.append(f"{relative}: not linked from README.md")
        for section in REQUIRED_SECTIONS.get(relative, ()):
            if section not in text:
                problems.append(f"{relative}: missing section {section!r}")
    return problems


def has_attributes(target: object, attributes: list[str]) -> bool:
    """True when ``target`` carries the attribute chain ``attributes``."""
    for attribute in attributes:
        if hasattr(target, attribute):
            target = getattr(target, attribute)
        elif attribute in getattr(target, "__dataclass_fields__", {}):
            # A dataclass field without a default is no class attribute.
            target = None
        else:
            return False
    return True


def resolves(name: str) -> bool:
    """True when ``name`` is an importable module or an attribute chain on one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        return has_attributes(target, parts[split:])
    return False


def exported_names() -> dict[str, object]:
    """Every name the ``repro`` package or a subpackage's ``__all__`` exports."""
    exports: dict[str, object] = {}
    for init in sorted(PACKAGE_ROOT.rglob("__init__.py")):
        parts = init.parent.relative_to(PACKAGE_ROOT.parent).parts
        package = importlib.import_module(".".join(parts))
        for name in getattr(package, "__all__", ()):
            exports[name] = getattr(package, name)
    return exports


def unresolved_names(pages: list[Path]) -> list[str]:
    """``page: name`` for every cited ``repro.…`` name, and every short
    ``Name.member`` of an exported ``Name``, that does not resolve."""
    source = str(PACKAGE_ROOT.parent)
    if source not in sys.path:
        sys.path.insert(0, source)
    exports = exported_names()
    problems = []
    for page in pages:
        text = page.read_text(encoding="utf-8")
        for name in QUALIFIED_NAME.findall(text):
            if not resolves(name):
                problems.append(f"{page.name}: {name}")
        for name in SHORT_NAME.findall(text):
            first, *members = name.split(".")
            if first in exports and not has_attributes(exports[first], members):
                problems.append(f"{page.name}: {name}")
    return problems


def unresolved_cross_references(sources: list[Path]) -> list[str]:
    """``file: name`` for every ``repro.…`` role target in ``sources`` that
    does not resolve."""
    source = str(PACKAGE_ROOT.parent)
    if source not in sys.path:
        sys.path.insert(0, source)
    problems = []
    for path in sources:
        for name in CROSS_REFERENCE.findall(path.read_text(encoding="utf-8")):
            if not resolves(name):
                problems.append(f"{path.name}: {name}")
    return problems


def doc_pages() -> list[Path]:
    """The pages whose qualified names are checked: the README and ``docs/``."""
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def main() -> int:
    if not PACKAGE_ROOT.is_dir():
        print(f"docs-check: package root {PACKAGE_ROOT} not found", file=sys.stderr)
        return 2
    modules = public_modules(PACKAGE_ROOT)
    offenders = missing_docstrings(modules)
    if offenders:
        print("docs-check: modules missing a module docstring:", file=sys.stderr)
        for path in offenders:
            print(f"  {path.relative_to(PACKAGE_ROOT.parent.parent)}", file=sys.stderr)
        return 1
    doc_problems = missing_required_docs()
    if doc_problems:
        print("docs-check: required doc pages have problems:", file=sys.stderr)
        for problem in doc_problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    unresolved = unresolved_names(doc_pages())
    if unresolved:
        print("docs-check: docs cite names that do not resolve:", file=sys.stderr)
        for problem in unresolved:
            print(f"  {problem}", file=sys.stderr)
        return 1
    stale = unresolved_cross_references(sorted(PACKAGE_ROOT.rglob("*.py")))
    if stale:
        print("docs-check: docstrings cross-reference names that do not resolve:", file=sys.stderr)
        for problem in stale:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"docs-check: OK ({len(modules)} public modules documented, "
        f"{len(REQUIRED_DOCS)} required doc pages present and linked, "
        "every cited repro name and docstring cross-reference resolves)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
