#!/usr/bin/env python
"""Record the golden corpus's pins for the current ``ENGINE_VERSION``.

Runs the corpus of ``tests/test_golden_corpus.py`` and adds its outcomes
to ``tests/golden_corpus.json`` under the current engine version.  It
takes no options, and it refuses with exit status 1 when that version
already has an entry: a change that moves a pinned outcome bumps
``ENGINE_VERSION`` first, and a change that moves none needs no re-pin.

    make corpus-pin        # or: PYTHONPATH=src python tools/pin_golden_corpus.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import test_golden_corpus as corpus  # noqa: E402
from repro.sim import ENGINE_VERSION  # noqa: E402

#: A JSON list of scalars, as ``json.dumps(..., indent=2)`` spreads it.
_SCALAR_LIST = re.compile(r"\[\s+([^\[\]{}]*?)\s+\]")


def pin(path: Path) -> int:
    """Add the current version's pins to ``path``; 1 if it has them already."""
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    version = str(ENGINE_VERSION)
    if version in pins:
        print(
            f"pin_golden_corpus: {path.name} already pins ENGINE_VERSION "
            f"{version}; a change that moves a pinned outcome bumps "
            "ENGINE_VERSION first",
            file=sys.stderr,
        )
        return 1
    pins[version] = corpus.corpus_outcomes()
    text = _SCALAR_LIST.sub(
        lambda match: "[" + ", ".join(re.split(r",\s+", match.group(1))) + "]",
        json.dumps(pins, indent=2),
    )
    path.write_text(text + "\n", encoding="utf-8")
    print(f"pin_golden_corpus: pinned ENGINE_VERSION {version} in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(pin(corpus.PINS_PATH))
