"""reprolint — an AST-based invariant checker for the repro engine.

The repo's correctness rests on a handful of hand-enforced contracts:
deterministic content-keyed seeding, all transform arithmetic routed
through ``repro.dsp.fft``, and hot-path failures surfacing as
``DecodingError`` so pooled sweeps count lost frames instead of dying.
``repro_lint`` machine-enforces those contracts as static-analysis rules:

========  ==============================================================
SEAM001   no ``np.fft``/``scipy.fft`` outside ``repro/dsp`` — route the
          transform through ``repro.dsp.fft``
DET001    no global-state RNG (``np.random.<sampler>``, the ``random``
          module, unseeded ``default_rng()``) in engine/datapath code
DET002    no wall-clock reads (``time.time``, ``datetime.now``) in
          engine/datapath code
EXC001    no bare ``except:`` and no silently-swallowed ``Exception``
EXC002    raising ``np.linalg`` solvers in datapath code must translate
          ``LinAlgError`` into ``DecodingError``
LINT001   suppression comments must carry a written justification
LINT002   suppression comments must name a registered rule and
          actually suppress something
PARSE001  every linted file must parse as Python
========  ==============================================================

Contracts that running code can check for itself (each stage's own
shape check, the air-interface dtype, dB/linear units, cache-key
completeness) are enforced by the runtime and tier-1 tests, not here;
``docs/linting.md`` names the test behind each.  Drift of the simulated
results is caught by the tier-1 golden corpus
(``tests/test_golden_corpus.py``), not by fingerprinting source.

Findings are suppressed per line with a justified comment::

    y = np.fft.fft(x)  # reprolint: disable=SEAM001 -- ground truth only

Run it as ``python -m repro_lint src tools examples tests`` (or ``make lint``);
see ``docs/linting.md`` for the full catalog.
"""

from __future__ import annotations

from repro_lint.core import (
    FileContext,
    Rule,
    Violation,
    all_rules,
    lint_source,
    register,
)

# Importing the rule modules registers every shipped rule.
from repro_lint import rules as _rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "lint_source",
    "register",
]
