"""QR decomposition via complex Givens rotations (the "three angle" method).

The paper decomposes each subcarrier's 4x4 channel matrix with a systolic
array of CORDIC cells (Figs. 6-8):

* **boundary cells** (two vectoring CORDICs) annihilate the phase of the
  incoming element and then compute the real Givens rotation against the
  stored diagonal value — producing the two angles ``theta_b`` (phase) and
  ``theta_1`` (rotation) that are passed along the row;
* **internal cells** (three rotation CORDICs) first remove the phase
  ``theta_b`` from their incoming element and then apply the real rotation
  ``theta_1`` jointly to the stored value and the de-phased input.

The same angle stream applied to an identity matrix yields ``Q^H`` directly
(the array labelled "Q matrix" in Fig. 7), which is exactly what the
inversion ``H^-1 = R^-1 Q^H`` needs.

:func:`qr_decompose_givens` is the one implementation: a column sweep over
a whole ``(k, n, n)`` stack of subcarrier matrices, in floating-point
arithmetic or, given a :class:`repro.dsp.cordic.Cordic`, with every angle
and rotation evaluated by CORDIC so word-length and iteration effects can
be studied.  The array's structure and timing are
:class:`repro.hardware.qrd.QrdArray`.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.dsp.cordic import Cordic
from repro.exceptions import ConfigurationError
from repro.mimo.matrix import hermitian

def _angles(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.atan2`` of two 1-D arrays (``np.arctan2`` rounds
    differently)."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), np.float64, y.size)


def _angle(cordic: Optional[Cordic], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boundary cell: the angle of ``(x, y)``, one vectoring CORDIC or ``atan2``."""
    if cordic is None:
        return _angles(y, x)
    return cordic.vector(x, y).angle


def _polar(
    cordic: Optional[Cordic], x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Boundary cell: the angle and magnitude of ``(x, y)``."""
    if cordic is None:
        return _angles(y, x), np.hypot(x, y)
    result = cordic.vector(x, y)
    return result.angle, result.x


def _rotate(
    cordic: Optional[Cordic],
    work: np.ndarray,
    col: int,
    row: int,
    theta_b: np.ndarray,
    theta_1: np.ndarray,
) -> None:
    """Internal cells: apply one Givens step to every matrix of ``work`` in place.

    ``work`` has shape ``(n, m, k)``, the matrix index innermost, and the
    angles shape ``(k,)``: the phase ``theta_b`` comes off row ``row``,
    then the real rotation ``theta_1`` acts on rows ``col`` and ``row``
    together.  Each row operation is one contiguous pass over all ``k``
    matrices.  With ``col == row`` the row is rotated against itself and
    keeps the second output.  In floating point the phase product stays a
    complex array multiply: spelt out in real arithmetic it rounds
    differently.
    """
    if cordic is None:
        work[row] *= np.exp(-1j * theta_b)
        c = np.cos(theta_1)
        s = np.sin(theta_1)
        upper, lower = work[col], work[row]
        work[col], work[row] = c * upper + s * lower, -s * upper + c * lower
        return
    # Real and imaginary parts are written separately, like the scalar
    # ``complex(x, y)``: ``x + 1j * y`` can flip the sign of a zero.
    lower = work[row]
    phase = cordic.rotate(lower.real, lower.imag, -theta_b)
    lower.real = phase.x
    lower.imag = phase.y
    upper = work[col]
    real = cordic.rotate(upper.real, lower.real, -theta_1)
    imag = cordic.rotate(upper.imag, lower.imag, -theta_1)
    upper.real = real.x
    upper.imag = imag.x
    lower.real = real.y
    lower.imag = imag.y


def qr_decompose_givens(
    matrix: np.ndarray, cordic: Optional[Cordic] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """QR decomposition by complex Givens rotations.

    Returns ``(q, r)`` with ``matrix = q @ r`` and ``r`` upper triangular
    with real non-negative diagonal.  The rotations are applied to
    ``[R | I]`` side by side, so the identity half ends up as ``Q^H``.

    ``matrix`` may also be a ``(k, n, n)`` stack, which is decomposed in one
    pass the way the paper's per-subcarrier arrays run side by side: every
    matrix sees the same rotation order and the same per-element
    expressions as on its own.  ``q`` and ``r`` are then stacks too.

    Without ``cordic`` the angles come from ``math.atan2``/``np.hypot`` and
    the rotations from ``cos``/``sin``.  With one, each boundary cell is two
    ``cordic.vector`` calls and each internal cell three ``cordic.rotate``
    calls (phase; real pair; imaginary pair), as in the hardware array.
    """
    h = np.asarray(matrix, dtype=np.complex128)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ConfigurationError("expected a square matrix or a stack of them")
    stack = h.reshape((-1,) + h.shape[-2:])
    k, n = stack.shape[0], stack.shape[-1]
    # R and Q^H side by side, shape (n, 2n, k): every rotation acts on the
    # same rows of both, and each row is one contiguous run over the stack.
    work = np.empty((n, 2 * n, k), dtype=np.complex128)
    work[:, :n] = stack.transpose(1, 2, 0)
    work[:, n:] = np.eye(n)[:, :, None]
    no_rotation = np.zeros(k)

    for col in range(n):
        # First make the diagonal element real and non-negative: the boundary
        # cell's stored value is a magnitude.
        diag = work[col, col]
        theta_diag = _angle(cordic, diag.real, diag.imag)
        _rotate(cordic, work, col, col, theta_diag, no_rotation)
        for row in range(col + 1, n):
            element = work[row, col]
            theta_b, magnitude = _polar(cordic, element.real, element.imag)
            theta_1 = _angle(cordic, work[col, col].real, magnitude)
            _rotate(cordic, work, col, row, theta_b, theta_1)
    # Clean numerically-zero subdiagonal residue.
    work[:, :n][np.tril(np.ones((n, n), dtype=bool), k=-1)] = 0.0
    r = work[:, :n].transpose(2, 0, 1)
    q = hermitian(work[:, n:].transpose(2, 0, 1))
    if h.ndim == 2:
        return q[0], r[0]
    return q, r
