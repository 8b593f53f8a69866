"""Upper-triangular matrix inversion (the "R matrix inverse" block).

The paper lists the explicit back-substitution equations its pipelined
hardware evaluates for the 4x4 case (Section IV.B).  This module implements
the general back substitution (:func:`invert_upper_triangular`) for any
matrix size; the tests check it against a literal transcription of the
paper's 4x4 equations.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ChannelEstimationError, ConfigurationError

#: Diagonal magnitude at or below which a triangular matrix is singular.
SINGULAR_TOLERANCE = 1e-12


def singular_mask(r: np.ndarray) -> np.ndarray:
    """Which upper-triangular matrices of a ``(..., n, n)`` stack are singular.

    A matrix is singular when any diagonal element is at most
    :data:`SINGULAR_TOLERANCE` in magnitude or not finite — the channel
    matrix it came from is rank deficient and zero-forcing equalisation is
    impossible.  The result has the stack's
    leading shape, so a caller can drop the bad matrices and invert the
    rest instead of losing the whole stack to one of them.
    """
    magnitude = np.abs(np.diagonal(np.asarray(r), axis1=-2, axis2=-1))
    return ~np.all((magnitude > SINGULAR_TOLERANCE) & np.isfinite(magnitude), axis=-1)


def invert_upper_triangular(r: np.ndarray) -> np.ndarray:
    """Invert an upper-triangular matrix by back substitution.

    Implements the recurrence the paper's equations follow::

        R^-1[i, i] = 1 / R[i, i]
        R^-1[i, j] = -( sum_{k=i+1..j} R[i, k] * R^-1[k, j] ) / R[i, i]   (j > i)

    ``r`` may also be a ``(k, n, n)`` stack: every matrix is inverted in
    the same pass with the same per-element float expressions.  The
    products are spelt out in real arithmetic because a complex array
    multiply rounds differently from the scalar one.

    Raises
    ------
    ChannelEstimationError
        If any matrix is singular (see :func:`singular_mask`); callers
        inverting a stack of independent matrices drop those first.
    """
    matrix = np.asarray(r, dtype=np.complex128)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ConfigurationError("expected a square matrix or a stack of them")
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    n = stack.shape[-1]
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(np.tril(stack, k=-1)) > 1e-9 * scale[:, None, None]):
        raise ConfigurationError("matrix is not upper triangular")
    if np.any(singular_mask(stack)):
        raise ChannelEstimationError("upper-triangular matrix is singular")

    inverse = np.zeros_like(stack)
    for i in range(n - 1, -1, -1):
        inverse[:, i, i] = 1.0 / stack[:, i, i]
        for j in range(i + 1, n):
            acc = np.zeros(stack.shape[0], dtype=np.complex128)
            for k in range(i + 1, j + 1):
                acc = acc + _multiply(stack[:, i, k], inverse[:, k, j])
            inverse[:, i, j] = -acc / stack[:, i, i]
    return inverse.reshape(matrix.shape)


def _multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product rounded like the scalar ``a * b`` (no fused multiply-add)."""
    product = np.empty(a.shape, dtype=np.complex128)
    product.real = a.real * b.real - a.imag * b.imag
    product.imag = a.real * b.imag + a.imag * b.real
    return product

