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

Two implementations are provided:

* :func:`qr_decompose_givens` — floating-point rotations (the functional
  reference), applied to a whole ``(k, n, n)`` stack of subcarrier matrices
  at once;
* :class:`CordicQrDecomposer` — every angle computation and rotation routed
  through :class:`repro.dsp.cordic.Cordic`, so word-length/iteration effects
  can be studied, and so the structural model in
  :mod:`repro.rtl.systolic_qrd` has a numerically identical core to check
  against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.dsp.cordic import Cordic
from repro.mimo.matrix import hermitian


@dataclass(frozen=True)
class GivensRotation:
    """One complex Givens step: phase removal plus a real rotation.

    Annihilates row ``row`` of column ``col`` against the diagonal element in
    row ``col`` (the boundary cell's stored value).

    Attributes
    ----------
    col:
        Column being processed (the boundary cell's column).
    row:
        Row whose element is being annihilated.
    theta_b:
        Phase of the annihilated element (removed first).
    theta_1:
        Real rotation angle between the diagonal value and the de-phased
        element.

    Both angles are ``(k,)`` arrays when a stack of ``k`` matrices is
    decomposed in lock step.
    """

    col: int
    row: int
    theta_b: Union[float, np.ndarray]
    theta_1: Union[float, np.ndarray]


_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _angles(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.atan2`` (``np.arctan2`` rounds differently)."""
    return _atan2(y, x).astype(np.float64)


def _apply_rotation_float(
    stack: np.ndarray, col: int, row: int, theta_b: np.ndarray, theta_1: np.ndarray
) -> None:
    """Apply one Givens step to every matrix of ``stack`` in place.

    ``stack`` has shape ``(k, n, m)`` and the angles shape ``(k,)``.  The
    phase product stays a complex array multiply: spelt out in real
    arithmetic it rounds differently.
    """
    phase = np.exp(-1j * theta_b)[:, None]
    stack[:, row, :] = stack[:, row, :] * phase
    c = np.cos(theta_1)[:, None]
    s = np.sin(theta_1)[:, None]
    upper = stack[:, col, :].copy()
    lower = stack[:, row, :].copy()
    stack[:, col, :] = c * upper + s * lower
    stack[:, row, :] = -s * upper + c * lower


def qr_decompose_givens(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, List[GivensRotation]]:
    """QR decomposition by complex Givens rotations (floating point).

    Returns ``(q, r, rotations)`` with ``matrix = q @ r``, ``r`` upper
    triangular with real non-negative diagonal, and the rotation sequence the
    systolic array would evaluate (useful for the structural model and for
    replaying the same rotations onto the identity to obtain ``Q^H``).

    ``matrix`` may also be a ``(k, n, n)`` stack, which is decomposed in one
    pass the way the paper's per-subcarrier arrays run side by side: every
    matrix sees the same rotation order and the same per-element float
    expressions as on its own.  ``q`` and ``r`` are then stacks too, and
    each rotation's angles are ``(k,)`` arrays.
    """
    h = np.asarray(matrix, dtype=np.complex128)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    stack = h.reshape((-1,) + h.shape[-2:])
    k, n = stack.shape[0], stack.shape[-1]
    # R and Q^H side by side: every rotation acts on the same rows of both.
    work = np.concatenate(
        [stack, np.broadcast_to(np.eye(n, dtype=np.complex128), stack.shape)], axis=2
    )
    rotations: List[GivensRotation] = []
    no_rotation = np.zeros(k)

    for col in range(n):
        # First make the diagonal element real and non-negative: the boundary
        # cell's stored value is a magnitude.
        diag = work[:, col, col]
        theta_diag = _angles(diag.imag, diag.real)
        rotations.append(GivensRotation(col, col, theta_diag, no_rotation))
        _apply_rotation_float(work, col, col, theta_diag, no_rotation)
        for row in range(col + 1, n):
            element = work[:, row, col]
            theta_b = _angles(element.imag, element.real)
            magnitude = np.hypot(element.real, element.imag)
            pivot = work[:, col, col].real
            theta_1 = _angles(magnitude, pivot)
            rotations.append(GivensRotation(col, row, theta_b, theta_1))
            _apply_rotation_float(work, col, row, theta_b, theta_1)
    r = work[:, :, :n]
    # Clean numerically-zero subdiagonal residue.
    r[:, np.tril(np.ones((n, n), dtype=bool), k=-1)] = 0.0
    q = hermitian(work[:, :, n:])
    if h.ndim == 2:
        rotations = [
            GivensRotation(rot.col, rot.row, float(rot.theta_b[0]), float(rot.theta_1[0]))
            for rot in rotations
        ]
        return q[0], r[0], rotations
    return q, r, rotations


class CordicQrDecomposer:
    """QR decomposition with every angle/rotation evaluated by CORDIC.

    Parameters
    ----------
    iterations:
        Micro-rotations per CORDIC (the ablation sweep varies this).
    cordic:
        Optionally supply a pre-configured :class:`Cordic` (e.g. with a
        fixed-point datapath); ``iterations`` is ignored in that case.
    """

    def __init__(self, iterations: int = 16, cordic: Optional[Cordic] = None) -> None:
        self.cordic = cordic if cordic is not None else Cordic(iterations=iterations)

    # ------------------------------------------------------------------
    def _apply_rotation(self, matrix: np.ndarray, rotation: GivensRotation) -> None:
        col, row = rotation.col, rotation.row
        n = matrix.shape[1]
        # Phase removal on the annihilated row (one rotation CORDIC per element).
        for k in range(n):
            value = matrix[row, k]
            phase = self.cordic.rotate(value.real, value.imag, -rotation.theta_b)
            matrix[row, k] = complex(phase.x, phase.y)
        # Real rotation applied jointly to the pivot row and the annihilated
        # row: one CORDIC for the real parts, one for the imaginary parts.
        for k in range(n):
            upper = matrix[col, k]
            lower = matrix[row, k]
            real = self.cordic.rotate(upper.real, lower.real, -rotation.theta_1)
            imag = self.cordic.rotate(upper.imag, lower.imag, -rotation.theta_1)
            matrix[col, k] = complex(real.x, imag.x)
            matrix[row, k] = complex(real.y, imag.y)

    # ------------------------------------------------------------------
    def decompose(
        self, matrix: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[GivensRotation]]:
        """Decompose ``matrix`` into ``(q, r, rotations)`` using CORDIC cells."""
        h = np.asarray(matrix, dtype=np.complex128)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("expected a square matrix")
        n = h.shape[0]
        r = h.copy()
        q_hermitian = np.eye(n, dtype=np.complex128)
        rotations: List[GivensRotation] = []

        for col in range(n):
            diag = r[col, col]
            diag_vec = self.cordic.vector(diag.real, diag.imag)
            diag_rotation = GivensRotation(
                col=col, row=col, theta_b=diag_vec.angle, theta_1=0.0
            )
            rotations.append(diag_rotation)
            self._apply_rotation(r, diag_rotation)
            self._apply_rotation(q_hermitian, diag_rotation)
            for row in range(col + 1, n):
                element = r[row, col]
                # Boundary cell, first vectoring CORDIC: phase + magnitude of b.
                vec_b = self.cordic.vector(element.real, element.imag)
                theta_b = vec_b.angle
                magnitude = vec_b.magnitude
                # Boundary cell, second vectoring CORDIC: rotation of (|a|, |b|).
                pivot = r[col, col].real
                vec_1 = self.cordic.vector(pivot, magnitude)
                theta_1 = vec_1.angle
                rotation = GivensRotation(
                    col=col, row=row, theta_b=theta_b, theta_1=theta_1
                )
                rotations.append(rotation)
                self._apply_rotation(r, rotation)
                self._apply_rotation(q_hermitian, rotation)

        r[np.tril_indices(n, k=-1)] = 0.0
        q = hermitian(q_hermitian)
        return q, r, rotations

