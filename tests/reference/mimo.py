"""Per-matrix MIMO references: float and CORDIC Givens QR, back
substitution, the paper's literal 4x4 R-inverse equations, channel
inversion, per-subcarrier LTS division and per-subcarrier MMSE solve."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.exceptions import ChannelEstimationError, ConfigurationError, DecodingError


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


def _rotate_cordic(
    cordic, matrix: np.ndarray, col: int, row: int, theta_b: float, theta_1: float
) -> None:
    n = matrix.shape[1]
    # Phase removal on the annihilated row (one rotation CORDIC per element).
    for k in range(n):
        value = matrix[row, k]
        phase = cordic.rotate(value.real, value.imag, -theta_b)
        matrix[row, k] = complex(phase.x, phase.y)
    # Real rotation applied jointly to the pivot row and the annihilated
    # row: one CORDIC for the real parts, one for the imaginary parts.
    for k in range(n):
        upper = matrix[col, k]
        lower = matrix[row, k]
        real = cordic.rotate(upper.real, lower.real, -theta_1)
        imag = cordic.rotate(upper.imag, lower.imag, -theta_1)
        matrix[col, k] = complex(real.x, imag.x)
        matrix[row, k] = complex(real.y, imag.y)


def qr_cordic_serial(matrix: np.ndarray, cordic) -> Tuple[np.ndarray, np.ndarray]:
    """``(q, r)`` of one square matrix, every angle and rotation one scalar
    ``cordic`` call (a :class:`reference.dsp.Cordic`) per element."""
    h = np.asarray(matrix, dtype=np.complex128)
    n = h.shape[0]
    r = h.copy()
    q_hermitian = np.eye(n, dtype=np.complex128)
    for col in range(n):
        diag = r[col, col]
        diag_vec = cordic.vector(diag.real, diag.imag)
        _rotate_cordic(cordic, r, col, col, diag_vec.angle, 0.0)
        _rotate_cordic(cordic, q_hermitian, col, col, diag_vec.angle, 0.0)
        for row in range(col + 1, n):
            element = r[row, col]
            # Boundary cell, first vectoring CORDIC: phase + magnitude of b.
            vec_b = cordic.vector(element.real, element.imag)
            theta_b = vec_b.angle
            magnitude = vec_b.magnitude
            # Boundary cell, second vectoring CORDIC: rotation of (|a|, |b|).
            pivot = r[col, col].real
            vec_1 = cordic.vector(pivot, magnitude)
            theta_1 = vec_1.angle
            _rotate_cordic(cordic, r, col, row, theta_b, theta_1)
            _rotate_cordic(cordic, q_hermitian, col, row, theta_b, theta_1)
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


def estimate_channel_from_lts_serial(
    received_lts: np.ndarray, reference_lts: np.ndarray, active_mask: np.ndarray
) -> np.ndarray:
    """``(fft_size, n_rx, n_tx)`` estimate, one subcarrier's division at a time."""
    rx = np.asarray(received_lts, dtype=np.complex128)
    ref = np.asarray(reference_lts, dtype=np.complex128).ravel()
    n_tx, n_rx, fft_size = rx.shape
    estimate = np.zeros((fft_size, n_rx, n_tx), dtype=np.complex128)
    for k in np.nonzero(active_mask)[0]:
        if ref[k] == 0:
            raise ChannelEstimationError(
                f"subcarrier {k} is marked active but the reference LTS is zero there"
            )
        # H[i, j] = Y_i^{(j)}(k) / LTS(k)
        estimate[k] = (rx[:, :, k] / ref[k]).T
    return estimate


def mmse_weights_serial(
    matrices: np.ndarray, active_mask: np.ndarray, noise_variance: float
) -> np.ndarray:
    """``(fft_size, n_tx, n_rx)`` MMSE weights, one ``solve`` per subcarrier."""
    fft_size, n_rx, n_tx = matrices.shape
    weights = np.zeros((fft_size, n_tx, n_rx), dtype=np.complex128)
    identity = np.eye(n_tx)
    for k in np.nonzero(active_mask)[0]:
        hk = matrices[k]
        hk_h = np.conj(hk).T
        gram = hk_h @ hk + noise_variance * identity
        try:
            weights[k] = np.linalg.solve(gram, hk_h)
        except np.linalg.LinAlgError as error:
            raise DecodingError(
                f"MMSE Gram matrix is singular on subcarrier {k}"
            ) from error
    return weights


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
