"""Upper-triangular matrix inversion (the "R matrix inverse" block).

The paper lists the explicit back-substitution equations its pipelined
hardware evaluates for the 4x4 case (Section IV.B).  This module implements
both the general back-substitution (:func:`invert_upper_triangular`) and the
literal 4x4 equations (:func:`r_inverse_4x4_paper_equations`); tests verify
the two agree, and the benchmark uses the general routine for arbitrary
matrix sizes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ChannelEstimationError, ConfigurationError


def singular_mask(r: np.ndarray, tolerance: float = 1e-12) -> np.ndarray:
    """Which upper-triangular matrices of a ``(..., n, n)`` stack are singular.

    A matrix is singular when any diagonal element is (numerically) zero or
    not finite — the channel matrix it came from is rank deficient and
    zero-forcing equalisation is impossible.  The result has the stack's
    leading shape, so a caller can drop the bad matrices and invert the
    rest instead of losing the whole stack to one of them.
    """
    magnitude = np.abs(np.diagonal(np.asarray(r), axis1=-2, axis2=-1))
    return ~np.all((magnitude > tolerance) & np.isfinite(magnitude), axis=-1)


def invert_upper_triangular(r: np.ndarray, tolerance: float = 1e-12) -> np.ndarray:
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
    if np.any(singular_mask(stack, tolerance)):
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


def r_inverse_4x4_paper_equations(r: np.ndarray) -> np.ndarray:
    """The paper's explicit 4x4 R-inverse equations, transcribed literally.

    The hardware evaluates these with a heavily pipelined datapath because
    later terms depend on earlier ones (e.g. ``R^-1(2,3)`` needs
    ``R^-1(3,3)``).
    """
    matrix = np.asarray(r, dtype=np.complex128)
    if matrix.shape != (4, 4):
        raise ConfigurationError("the paper's explicit equations are for 4x4 matrices")
    diag = np.diagonal(matrix)
    if np.any(np.abs(diag) == 0):
        raise ChannelEstimationError("upper-triangular matrix is singular")

    inv = np.zeros((4, 4), dtype=np.complex128)
    inv[3, 3] = 1.0 / matrix[3, 3]
    inv[2, 2] = 1.0 / matrix[2, 2]
    inv[2, 3] = -matrix[2, 3] * inv[3, 3] / matrix[2, 2]
    inv[1, 1] = 1.0 / matrix[1, 1]
    inv[1, 2] = -matrix[1, 2] * inv[2, 2] / matrix[1, 1]
    inv[1, 3] = -(matrix[1, 2] * inv[2, 3] + matrix[1, 3] * inv[3, 3]) / matrix[1, 1]
    inv[0, 0] = 1.0 / matrix[0, 0]
    inv[0, 1] = -matrix[0, 1] * inv[1, 1] / matrix[0, 0]
    inv[0, 2] = -(matrix[0, 1] * inv[1, 2] + matrix[0, 2] * inv[2, 2]) / matrix[0, 0]
    inv[0, 3] = -(
        matrix[0, 1] * inv[1, 3] + matrix[0, 2] * inv[2, 3] + matrix[0, 3] * inv[3, 3]
    ) / matrix[0, 0]
    return inv
