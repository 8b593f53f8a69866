"""Small complex-matrix helpers shared by the MIMO processing blocks."""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.types import ComplexArray


def hermitian(matrix: npt.ArrayLike) -> ComplexArray:
    """Conjugate transpose (of the last two axes, so stacks work too)."""
    return np.conj(np.asarray(matrix)).swapaxes(-1, -2)


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

