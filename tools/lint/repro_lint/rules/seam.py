"""SEAM001 — transform arithmetic must route through ``repro.dsp.fft``.

Every FFT/IFFT of the burst datapaths runs through the cached complex128
:class:`repro.dsp.fft.FftPlan` tables (:func:`repro.dsp.fft.get_plan`,
:func:`repro.dsp.fft.fft`, :func:`repro.dsp.fft.ifft`), so the simulator
has exactly one transform implementation and every stage agrees with the
per-symbol oracles bit for bit.  A direct ``np.fft``/``scipy.fft`` call
anywhere else in ``src/repro/`` would silently run a second arithmetic
(pocketfft) beside it.  This rule bans that bypass everywhere outside
``repro/dsp`` itself (the one package allowed to *implement* transforms).
"""

from __future__ import annotations

import ast
from typing import List

from repro_lint.core import FileContext, Rule, Violation, register
from repro_lint.names import ImportMap, resolve

#: Module prefixes that constitute going around ``repro.dsp.fft``.
_FORBIDDEN_PREFIXES = (
    "numpy.fft",
    "scipy.fft",
    "scipy.fftpack",
)


@register
class SeamPurityRule(Rule):
    rule_id = "SEAM001"
    name = "seam-purity"
    description = (
        "no np.fft/scipy.fft outside repro/dsp — route the transform "
        "through repro.dsp.fft"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and not relpath.startswith(
            "src/repro/dsp/"
        )

    def check(self, ctx: FileContext) -> List[Violation]:
        imports = ImportMap(ctx.tree)
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            canonical = resolve(node, imports)
            if canonical is None:
                continue
            if any(
                canonical == prefix or canonical.startswith(prefix + ".")
                for prefix in _FORBIDDEN_PREFIXES
            ):
                # Report the outermost expression once, not every inner
                # Attribute of the same chain: anchor on Attribute nodes
                # whose parent chain we are the head of is handled by only
                # flagging nodes that resolve *exactly* into the forbidden
                # namespace at call/use sites.
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"{canonical} bypasses repro.dsp.fft; route the "
                        "transform through repro.dsp.fft (get_plan / fft / "
                        "ifft)",
                    )
                )
        return _dedupe_chains(violations)


def _dedupe_chains(violations: List[Violation]) -> List[Violation]:
    """Collapse nested Attribute hits at one location into one finding.

    ``np.fft.fft(x)`` resolves for both the ``np.fft.fft`` chain and its
    inner ``np.fft`` node; they share (line, col) once the chain walk
    reaches the head, so keep the most specific (longest) message per
    location.
    """
    best = {}
    for violation in violations:
        key = (violation.path, violation.line, violation.col)
        kept = best.get(key)
        if kept is None or len(violation.message) > len(kept.message):
            best[key] = violation
    return sorted(best.values(), key=lambda v: (v.line, v.col))
