"""EXC001/EXC002/EXC003 — failure discipline of the pooled datapath.

The sweep engine runs bursts in worker pools and *counts* receiver
give-ups: a hot-path failure must surface as
:class:`repro.exceptions.DecodingError` so ``simulate_batch`` folds it
into the loss statistics instead of the whole sweep dying (or worse,
the failure being swallowed and the burst counted as clean).

EXC001 bans the swallowing end: bare ``except:`` and
``except Exception: pass`` hide programming errors and make loss
accounting a lie.  EXC002 guards the raising end: the ``np.linalg``
solvers that can throw ``LinAlgError`` (singular Gram matrices deep in
the noise are a property of the burst, not a bug) must run inside a
``try`` that catches it — and turns it into a per-burst give-up, as
``repro/mimo/detector.py`` flags the burst whose Gram matrix is singular
and the receiver slots that burst's ``DecodingError``.  EXC003 types the
argument checks: engine code raises ``ConfigurationError`` (itself a
``ValueError``), never a bare builtin exception, apart from a short list
of sites where the builtin type is the contract.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro_lint.core import FileContext, Rule, Violation, register
from repro_lint.names import ImportMap, resolve

#: ``numpy.linalg`` / ``scipy.linalg`` callables that raise ``LinAlgError``
#: on rank-deficient or non-converging inputs.
_RAISING_SOLVERS = {
    "solve",
    "inv",
    "pinv",
    "lstsq",
    "cholesky",
    "qr",
    "svd",
    "eig",
    "eigh",
    "tensorsolve",
    "tensorinv",
    "matrix_power",
}

#: Exception names that count as handling ``LinAlgError`` when they appear
#: in an ``except`` clause guarding a solver call.
_HANDLING_NAMES = {"LinAlgError", "Exception", "BaseException"}


#: Builtin exception classes engine code may not raise bare.
_BANNED_BUILTINS = {
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "RuntimeError",
    "AssertionError",
}

#: The builtin raises that stay, as ``(path, enclosing qualname, class)``:
#: ``quantize`` rejects complex input with numpy's own ``TypeError``, an
#: unknown entity is a mapping miss, and asking an empty work queue for a
#: result is a caller bug, not a configuration.
_ALLOWED_BUILTIN_RAISES = {
    ("src/repro/dsp/fixedpoint.py", "FixedPointFormat.quantize", "TypeError"),
    ("src/repro/hardware/resources.py", "ResourceReport.entity_share", "KeyError"),
    ("src/repro/sim/queue.py", "InProcessQueue.next_result", "RuntimeError"),
    ("src/repro/sim/queue.py", "MultiprocessingQueue.next_result", "RuntimeError"),
}


def _handler_names(handler: ast.ExceptHandler) -> Set[str]:
    """Terminal names of the exception classes one handler catches."""
    names: Set[str] = set()
    node = handler.type
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in nodes:
        if isinstance(item, ast.Attribute):
            names.add(item.attr)
        elif isinstance(item, ast.Name):
            names.add(item.id)
    return names


def _swallows_everything(handler: ast.ExceptHandler) -> bool:
    """True when the handler body is only ``pass``/``...`` (no re-raise)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring or bare ``...``
        return False
    return True


@register
class ExceptionDisciplineRule(Rule):
    rule_id = "EXC001"
    name = "no-swallowed-exceptions"
    description = (
        "no bare 'except:' and no 'except Exception: pass' — failures must "
        "be handled, translated or re-raised, never silently swallowed"
    )

    # Applies everywhere make lint looks (src, tools, examples): swallowed
    # errors are poison in analysis scripts too.

    def check(self, ctx: FileContext) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        "bare 'except:' catches SystemExit/KeyboardInterrupt "
                        "too; name the exceptions this code can actually "
                        "handle",
                    )
                )
            elif (
                _handler_names(node) & {"Exception", "BaseException"}
                and _swallows_everything(node)
            ):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        "'except Exception: pass' silently swallows every "
                        "failure; handle it, translate it to DecodingError, "
                        "or let it propagate",
                    )
                )
        return violations


@register
class LinAlgEscapeRule(Rule):
    rule_id = "EXC002"
    name = "no-raw-linalg-error"
    description = (
        "raising np.linalg solvers in datapath code must sit inside a try "
        "that catches LinAlgError (translate it to DecodingError so pooled "
        "sweeps count a lost frame)"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, ctx: FileContext) -> List[Violation]:
        imports = ImportMap(ctx.tree)
        violations: List[Violation] = []
        self._walk(ctx, ctx.tree, imports, protected=False, out=violations)
        return violations

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        imports: ImportMap,
        protected: bool,
        out: List[Violation],
    ) -> None:
        if isinstance(node, ast.Try):
            guards = any(
                handler.type is not None and _handler_names(handler) & _HANDLING_NAMES
                for handler in node.handlers
            )
            for child in node.body:
                self._walk(ctx, child, imports, protected or guards, out)
            # Handlers/else/finally bodies are NOT guarded by this try.
            for handler in node.handlers:
                for child in handler.body:
                    self._walk(ctx, child, imports, protected, out)
            for child in node.orelse + node.finalbody:
                self._walk(ctx, child, imports, protected, out)
            return
        if isinstance(node, ast.Call):
            canonical = resolve(node.func, imports)
            if canonical is not None:
                for namespace in ("numpy.linalg.", "scipy.linalg."):
                    if canonical.startswith(namespace):
                        attr = canonical[len(namespace):]
                        if attr in _RAISING_SOLVERS and not protected:
                            out.append(
                                self.violation(
                                    ctx,
                                    node,
                                    f"{canonical} can raise LinAlgError; wrap "
                                    "it in try/except LinAlgError and raise "
                                    "DecodingError so the sweep engine counts "
                                    "a lost frame",
                                )
                            )
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child, imports, protected, out)


@register
class BuiltinRaiseRule(Rule):
    rule_id = "EXC003"
    name = "no-bare-builtin-raise"
    description = (
        "engine code raises typed ReproErrors (ConfigurationError for an "
        "argument check), never a bare ValueError/TypeError/KeyError/"
        "IndexError/RuntimeError/AssertionError outside the listed sites"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, ctx: FileContext) -> List[Violation]:
        violations: List[Violation] = []
        self._walk(ctx, ctx.tree, (), violations)
        return violations

    def _walk(
        self, ctx: FileContext, node: ast.AST, scope: tuple, out: List[Violation]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(ctx, child, scope + (child.name,), out)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in _BANNED_BUILTINS:
                    site = (ctx.relpath, ".".join(scope), exc.id)
                    if site not in _ALLOWED_BUILTIN_RAISES:
                        out.append(
                            self.violation(
                                ctx,
                                child,
                                f"bare {exc.id} in engine code; raise "
                                "ConfigurationError for an argument check "
                                "(or another ReproError)",
                            )
                        )
            self._walk(ctx, child, scope, out)
