"""Declarative shape contracts for datapath stages.

The transceiver is a chain of fixed-shape tensor stages, and the
costliest historical bugs were shape mistakes no unit test saw until a
sweep ran.  :func:`shaped` turns a stage's shape expectations into a
declaration it checks on every call (cheap tuple comparisons, always
on).  Contract grammar::

    @shaped(streams="(n_rx, n_samples)")            # one parameter
    @shaped("(n_streams, n_bits)", bits="(n_bits,)")  # positional = return
    @shaped(x="(_, 64) | (_, n_sym, 64)")           # alternatives

Dimensions are comma-separated inside parentheses: an identifier binds a
name (all uses of one name must agree within a single call, across
parameters *and* the return value), an integer literal must match
exactly, ``_`` matches any single dimension, and ``...`` (at most one
per alternative) matches any number of dimensions.  ``|`` separates
alternatives; the first that matches wins.

Violations raise :class:`ShapeContractError` naming the function, the
offending argument and the reason.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, Union

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "ShapeContractError",
    "parse_contract",
    "shaped",
]

#: One dimension spec: literal int, bound name, ``None`` (= ``_``) or
#: ``Ellipsis`` (= ``...``).
DimSpec = Union[int, str, None, type(Ellipsis)]
ContractAlternative = Tuple[DimSpec, ...]

_F = TypeVar("_F", bound=Callable[..., Any])


class ShapeContractError(ReproError, ValueError):
    """An array violated the shape contract its stage declared.

    Also a ``ValueError``: contracts formalise checks stages used to
    hand-roll (and some still do), and callers that guarded those with
    ``except ValueError`` must keep working when the decorator fires
    first.
    """


def parse_contract(text: str) -> Tuple[ContractAlternative, ...]:
    """Parse a shape-contract string into its alternatives.

    ``"(n_rx, fft_size)"`` -> one alternative; ``"(a,) | (a, b)"`` ->
    two.  Raises ``ValueError`` on malformed contracts.
    """
    alternatives = []
    for part in text.split("|"):
        part = part.strip()
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"shape contract {text!r}: alternative {part!r} "
                             "must be parenthesised, e.g. '(n_rx, n_samples)'")
        inner = part[1:-1].strip()
        dims: list = []
        if inner:
            for token in inner.split(","):
                token = token.strip()
                if not token:
                    continue
                if token == "...":
                    dims.append(Ellipsis)
                elif token == "_":
                    dims.append(None)
                elif token.lstrip("+-").isdigit():
                    dims.append(int(token))
                elif token.isidentifier():
                    dims.append(token)
                else:
                    raise ValueError(
                        f"shape contract {text!r}: bad dimension {token!r}"
                    )
        if dims.count(Ellipsis) > 1:
            raise ValueError(f"shape contract {text!r}: at most one '...'")
        alternatives.append(tuple(dims))
    if not alternatives:
        raise ValueError(f"shape contract {text!r} declares no alternative")
    return tuple(alternatives)


def _match_alternative(
    alternative: ContractAlternative,
    shape: Tuple[int, ...],
    bindings: Dict[str, int],
) -> Optional[str]:
    """None on success (updating ``bindings``), else a reason string."""
    if Ellipsis in alternative:
        cut = alternative.index(Ellipsis)
        head, tail = alternative[:cut], alternative[cut + 1:]
        if len(shape) < len(head) + len(tail):
            return (
                f"rank {len(shape)} is smaller than the contract's "
                f"{len(head) + len(tail)} fixed dimensions"
            )
        pairs = list(zip(head, shape[: len(head)]))
        if tail:
            pairs += list(zip(tail, shape[-len(tail):]))
    else:
        if len(shape) != len(alternative):
            return f"rank {len(shape)} != contract rank {len(alternative)}"
        pairs = list(zip(alternative, shape))
    for spec, dim in pairs:
        if spec is None:
            continue
        if isinstance(spec, int):
            if dim != spec:
                return f"dimension {dim} != contract literal {spec}"
            continue
        bound = bindings.get(spec)
        if bound is None:
            bindings[spec] = dim
        elif bound != dim:
            return f"'{spec}' already bound to {bound}, got {dim}"
    return None


def _match_contract(
    alternatives: Tuple[ContractAlternative, ...],
    shape: Tuple[int, ...],
    bindings: Dict[str, int],
) -> Optional[str]:
    reasons = []
    for alternative in alternatives:
        trial = dict(bindings)
        reason = _match_alternative(alternative, shape, trial)
        if reason is None:
            bindings.update(trial)
            return None
        reasons.append(reason)
    return "; ".join(reasons)


def format_alternatives(
    alternatives: Tuple[ContractAlternative, ...],
) -> str:
    def one(alt: ContractAlternative) -> str:
        parts = []
        for dim in alt:
            if dim is Ellipsis:
                parts.append("...")
            elif dim is None:
                parts.append("_")
            else:
                parts.append(str(dim))
        return "(" + ", ".join(parts) + ")"

    return " | ".join(one(alt) for alt in alternatives)


def shaped(*args: str, **param_contracts: str) -> Callable[[_F], _F]:
    """Declare (and enforce) per-parameter and return shape contracts.

    A single positional string is the *return* contract; keyword
    arguments name parameters (``returns=`` is an alias for the return
    contract).  The parsed contracts are exposed on the wrapper as
    ``__shape_contract__`` (``{param_or_"return": alternatives}``) so
    tests and tooling can introspect them.
    """
    if len(args) > 1:
        raise TypeError(
            "shaped() takes at most one positional (return) contract"
        )
    contracts: Dict[str, Tuple[ContractAlternative, ...]] = {}
    if args:
        contracts["return"] = parse_contract(args[0])
    for name, text in param_contracts.items():
        key = "return" if name == "returns" else name
        if key in contracts:
            raise TypeError(f"shaped(): duplicate contract for {key!r}")
        contracts[key] = parse_contract(text)

    def decorate(func: _F) -> _F:
        signature = inspect.signature(func)
        for param in contracts:
            if param != "return" and param not in signature.parameters:
                raise TypeError(
                    f"shaped(): {func.__qualname__} has no parameter "
                    f"{param!r}"
                )

        @functools.wraps(func)
        def wrapper(*call_args: Any, **call_kwargs: Any) -> Any:
            bound = signature.bind(*call_args, **call_kwargs)
            bindings: Dict[str, int] = {}
            for param, alternatives in contracts.items():
                if param == "return" or param not in bound.arguments:
                    continue
                value = bound.arguments[param]
                shape = _shape_of(value)
                if shape is None:
                    continue
                reason = _match_contract(alternatives, shape, bindings)
                if reason is not None:
                    raise ShapeContractError(
                        f"{func.__qualname__}: argument {param!r} with "
                        f"shape {shape} violates its contract "
                        f"{format_alternatives(alternatives)}: {reason}"
                    )
            result = func(*call_args, **call_kwargs)
            returns = contracts.get("return")
            if returns is not None:
                shape = _shape_of(result)
                if shape is not None:
                    reason = _match_contract(returns, shape, bindings)
                    if reason is not None:
                        raise ShapeContractError(
                            f"{func.__qualname__}: return value with "
                            f"shape {shape} violates its contract "
                            f"{format_alternatives(returns)}: {reason}"
                        )
            return result

        wrapper.__shape_contract__ = contracts
        return wrapper  # type: ignore[return-value]

    return decorate


def _shape_of(value: Any) -> Optional[Tuple[int, ...]]:
    """The shape to check, or None for non-array values (skipped)."""
    shape = getattr(value, "shape", None)
    if isinstance(shape, tuple) and all(isinstance(d, int) for d in shape):
        return shape
    if isinstance(value, np.generic):
        return ()
    return None
