"""Small complex-matrix helpers shared by the MIMO processing blocks."""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.types import ComplexArray


def hermitian(matrix: npt.ArrayLike) -> ComplexArray:
    """Conjugate transpose (of the last two axes, so stacks work too)."""
    return np.conj(np.asarray(matrix)).swapaxes(-1, -2)


def is_upper_triangular(matrix: npt.ArrayLike, tolerance: float = 1e-9) -> bool:
    """True when everything below the main diagonal is (numerically) zero."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("expected a square matrix")
    lower = np.tril(m, k=-1)
    return bool(np.all(np.abs(lower) <= tolerance))


def is_unitary(matrix: npt.ArrayLike, tolerance: float = 1e-8) -> bool:
    """True when ``Q^H Q`` is (numerically) the identity."""
    q = np.asarray(matrix, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ConfigurationError("expected a square matrix")
    identity = np.eye(q.shape[0])
    return bool(np.allclose(hermitian(q) @ q, identity, atol=tolerance))


def frobenius_error(a: npt.ArrayLike, b: npt.ArrayLike) -> float:
    """Relative Frobenius-norm error ``||a - b|| / ||b||``."""
    a_arr = np.asarray(a, dtype=np.complex128)
    b_arr = np.asarray(b, dtype=np.complex128)
    if a_arr.shape != b_arr.shape:
        raise ConfigurationError("matrices must have the same shape")
    denom = np.linalg.norm(b_arr)
    if denom == 0:
        return float(np.linalg.norm(a_arr))
    return float(np.linalg.norm(a_arr - b_arr) / denom)

