"""Per-matrix MIMO references: Givens QR, back substitution, channel inversion."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.exceptions import ChannelEstimationError


def _rotate(matrix: np.ndarray, col: int, row: int, theta_b: float, theta_1: float) -> None:
    phase = np.exp(-1j * theta_b)
    matrix[row, :] = matrix[row, :] * phase
    c = math.cos(theta_1)
    s = math.sin(theta_1)
    upper = matrix[col, :].copy()
    lower = matrix[row, :].copy()
    matrix[col, :] = c * upper + s * lower
    matrix[row, :] = -s * upper + c * lower


def qr_givens_serial(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(q, r)`` of one square matrix, one scalar-angle rotation at a time."""
    h = np.asarray(matrix, dtype=np.complex128)
    n = h.shape[0]
    r = h.copy()
    q_hermitian = np.eye(n, dtype=np.complex128)
    for col in range(n):
        diag = r[col, col]
        theta_diag = math.atan2(diag.imag, diag.real)
        _rotate(r, col, col, theta_diag, 0.0)
        _rotate(q_hermitian, col, col, theta_diag, 0.0)
        for row in range(col + 1, n):
            element = r[row, col]
            theta_b = math.atan2(element.imag, element.real)
            theta_1 = math.atan2(abs(element), r[col, col].real)
            _rotate(r, col, row, theta_b, theta_1)
            _rotate(q_hermitian, col, row, theta_b, theta_1)
    r[np.tril_indices(n, k=-1)] = 0.0
    return np.conj(q_hermitian).T, r


def invert_upper_triangular_serial(r: np.ndarray, tolerance: float = 1e-12) -> np.ndarray:
    """Back substitution of one upper-triangular matrix with scalar arithmetic."""
    matrix = np.asarray(r, dtype=np.complex128)
    n = matrix.shape[0]
    if np.any(np.abs(np.diagonal(matrix)) <= tolerance):
        raise ChannelEstimationError("upper-triangular matrix is singular")
    inverse = np.zeros_like(matrix)
    for i in range(n - 1, -1, -1):
        inverse[i, i] = 1.0 / matrix[i, i]
        for j in range(i + 1, n):
            acc = 0.0 + 0.0j
            for k in range(i + 1, j + 1):
                acc += matrix[i, k] * inverse[k, j]
            inverse[i, j] = -acc / matrix[i, i]
    return inverse


def invert_channel_serial(matrix: np.ndarray) -> np.ndarray:
    """``R^-1 Q^H`` of one channel matrix."""
    q, r = qr_givens_serial(matrix)
    return invert_upper_triangular_serial(r) @ np.conj(q).T
