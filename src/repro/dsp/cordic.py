"""CORDIC (COordinate Rotation DIgital Computer) models.

The paper's receiver uses CORDIC blocks in two places:

* the **time synchroniser** uses a CORDIC to compute the magnitude of the
  sliding-window correlation (Fig. 4) because it is cheaper than a square
  root (the model takes ``np.abs`` and counts the CORDIC's latency in
  :class:`~repro.hardware.latency.LatencyModel`);
* the **QR decomposition** systolic array is built from CORDIC cells working
  in *vectoring* mode (boundary cells) and *rotation* mode (internal cells),
  implementing the three-angle complex rotation algorithm (Figs. 6-7).

This module provides an iteration-accurate CORDIC engine that works
elementwise on arrays, so a whole stack of subcarrier matrices runs
through one micro-rotation sequence (:func:`repro.mimo.qr.qr_decompose_givens`).
Every element sees the same floating-point operations in the same order
as a scalar engine would give it.  The default of 16 iterations matches
the paper's 20-cycle CORDIC ("Each CORDIC element has a latency of 20
clock cycles"): 16 micro-rotations plus input staging, gain compensation
and output registering; that latency is the module constant
:data:`CORDIC_PIPELINE_LATENCY`, which the hardware models read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.typing as npt

from repro.dsp.fixedpoint import FixedPointFormat
from repro.exceptions import integer_at_least

#: Pipeline latency (clock cycles) of one hardware CORDIC element in the paper.
CORDIC_PIPELINE_LATENCY = 20

#: Default number of micro-rotations; 16 gives ~16-bit angular accuracy.
DEFAULT_ITERATIONS = 16


def cordic_gain(iterations: int = DEFAULT_ITERATIONS) -> float:
    """Aggregate CORDIC gain ``K = prod(sqrt(1 + 2^-2i))`` for ``iterations``,
    an integer of at least 1 (anything else raises
    :class:`~repro.exceptions.ConfigurationError`)."""
    iterations = integer_at_least("iterations", iterations, 1)
    gain = 1.0
    for i in range(iterations):
        gain *= math.sqrt(1.0 + 2.0 ** (-2 * i))
    return gain


@dataclass(frozen=True)
class CordicResult:
    """Result of one CORDIC operation: arrays of the inputs' broadcast shape
    (numpy scalars for scalar inputs).

    Attributes
    ----------
    x, y:
        Output coordinates after the micro-rotation sequence, gain
        compensated.
    angle:
        For vectoring mode: the angle (radians) through which the input was
        rotated to reach the x-axis, i.e. ``atan2(y_in, x_in)``.  For
        rotation mode: the residual angle error, one per input angle.
    """

    x: np.ndarray
    y: np.ndarray
    angle: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """Magnitude output (meaningful in vectoring mode, where y -> 0)."""
        return self.x


class Cordic:
    """Iteration-accurate CORDIC engine in circular coordinates.

    Parameters
    ----------
    iterations:
        Number of micro-rotations (angular accuracy ~ ``2**-iterations``),
        an integer of at least 1.
    fixed_format:
        Optional fixed-point format applied to the x/y datapath after every
        micro-rotation, modelling finite word-length hardware.

    The intrinsic CORDIC gain is divided out of the outputs, as the
    hardware's constant scale factor at the end of the pipeline does.
    Inputs broadcast against each other like numpy operands.
    """

    def __init__(
        self,
        iterations: int = DEFAULT_ITERATIONS,
        fixed_format: Optional[FixedPointFormat] = None,
    ) -> None:
        self.iterations = integer_at_least("iterations", iterations, 1)
        self.fixed_format = fixed_format
        self._gain = cordic_gain(self.iterations)
        self._angles = [math.atan(2.0 ** (-i)) for i in range(self.iterations)]

    def _quantize(self, value: np.ndarray) -> np.ndarray:
        if self.fixed_format is None:
            return value
        return self.fixed_format.quantize(value)

    def vector(self, x: npt.ArrayLike, y: npt.ArrayLike) -> CordicResult:
        """Vectoring mode: rotate ``(x, y)`` onto the x-axis.

        Returns the magnitude in ``x`` and the accumulated rotation angle,
        i.e. ``(|v|, atan2(y, x))``.  This is what the boundary cells of the
        QRD array and the magnitude calculator of the time synchroniser do.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        # Rotate by ±pi/2 into the right half plane, the convergence region.
        right = x >= 0
        upper = y >= 0
        xi = np.where(right, x, np.where(upper, y, -y))
        yi = np.where(right, y, np.where(upper, -x, x))
        z = np.where(right, 0.0, np.where(upper, math.pi / 2.0, -math.pi / 2.0))
        for i in range(self.iterations):
            d = np.where(yi >= 0, 1.0, -1.0)
            xi, yi = (
                self._quantize(xi + d * yi * 2.0 ** (-i)),
                self._quantize(yi - d * xi * 2.0 ** (-i)),
            )
            z = z + d * self._angles[i]
        return CordicResult(
            x=self._quantize(xi / self._gain),
            y=self._quantize(yi / self._gain),
            angle=z,
        )

    def rotate(
        self, x: npt.ArrayLike, y: npt.ArrayLike, angle: npt.ArrayLike
    ) -> CordicResult:
        """Rotation mode: rotate ``(x, y)`` by ``angle`` radians.

        This is what the internal cells of the QRD systolic array do with the
        angles passed along from the boundary cells.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(angle, dtype=np.float64)
        # Bring the target angle into the convergence region.
        above = z > math.pi / 2.0
        below = z < -math.pi / 2.0
        xi = np.where(above | below, -x, x)
        yi = np.where(above | below, -y, y)
        z = z - np.where(above, math.pi, np.where(below, -math.pi, 0.0))
        for i in range(self.iterations):
            d = np.where(z >= 0, 1.0, -1.0)
            xi, yi = (
                self._quantize(xi - d * yi * 2.0 ** (-i)),
                self._quantize(yi + d * xi * 2.0 ** (-i)),
            )
            z = z - d * self._angles[i]
        return CordicResult(
            x=self._quantize(xi / self._gain),
            y=self._quantize(yi / self._gain),
            angle=z,
        )
