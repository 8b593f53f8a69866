"""Scalar CORDIC reference: one Python-float micro-rotation at a time.

The one-operation-at-a-time engine the production array engine in
:mod:`repro.dsp.cordic` replaced, kept unchanged (gain-compensation
switch and per-result latency included) as the oracle of its
elementwise agreement test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dsp.fixedpoint import FixedPointFormat

#: Pipeline latency (clock cycles) of one hardware CORDIC element in the paper.
CORDIC_PIPELINE_LATENCY = 20

#: Default number of micro-rotations; 16 gives ~16-bit angular accuracy.
DEFAULT_ITERATIONS = 16


def cordic_gain(iterations: int = DEFAULT_ITERATIONS) -> float:
    """Aggregate CORDIC gain ``K = prod(sqrt(1 + 2^-2i))`` for ``iterations``."""
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    gain = 1.0
    for i in range(iterations):
        gain *= math.sqrt(1.0 + 2.0 ** (-2 * i))
    return gain


@dataclass(frozen=True)
class CordicResult:
    """Result of one CORDIC operation.

    Attributes
    ----------
    x, y:
        Output coordinates after the micro-rotation sequence (gain
        compensated unless the caller disabled it).
    angle:
        For vectoring mode: the angle (radians) through which the input was
        rotated to reach the x-axis, i.e. ``atan2(y_in, x_in)``.  For
        rotation mode: the residual angle error.
    iterations:
        Number of micro-rotations performed.
    latency_cycles:
        Clock cycles a pipelined hardware implementation needs for this
        operation (constant, equal to the pipeline depth).
    """

    x: float
    y: float
    angle: float
    iterations: int
    latency_cycles: int = CORDIC_PIPELINE_LATENCY

    @property
    def magnitude(self) -> float:
        """Magnitude output (meaningful in vectoring mode, where y -> 0)."""
        return self.x


class Cordic:
    """Iteration-accurate CORDIC engine in circular coordinates.

    Parameters
    ----------
    iterations:
        Number of micro-rotations (angular accuracy ~ ``2**-iterations``).
    compensate_gain:
        When True (default) the intrinsic CORDIC gain is divided out of the
        outputs, matching a hardware implementation that applies the constant
        scale factor at the end of the pipeline.
    fixed_format:
        Optional fixed-point format applied to the x/y datapath after every
        micro-rotation, modelling finite word-length hardware.
    latency_cycles:
        Pipeline latency reported per operation (paper: 20 cycles).
    """

    def __init__(
        self,
        iterations: int = DEFAULT_ITERATIONS,
        compensate_gain: bool = True,
        fixed_format: Optional[FixedPointFormat] = None,
        latency_cycles: int = CORDIC_PIPELINE_LATENCY,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if latency_cycles <= 0:
            raise ValueError("latency_cycles must be positive")
        self.iterations = iterations
        self.compensate_gain = compensate_gain
        self.fixed_format = fixed_format
        self.latency_cycles = latency_cycles
        self._gain = cordic_gain(iterations)
        self._angles = [math.atan(2.0 ** (-i)) for i in range(iterations)]

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _quantize(self, value: float) -> float:
        if self.fixed_format is None:
            return value
        return float(self.fixed_format.quantize(value))

    def _prerotate(self, x: float, y: float) -> Tuple[float, float, float]:
        """Rotate the input into the CORDIC convergence region (|angle|<~99.9°)."""
        if x >= 0:
            return x, y, 0.0
        # Rotate by ±pi/2 to bring the vector into the right half plane.
        if y >= 0:
            return y, -x, math.pi / 2.0
        return -y, x, -math.pi / 2.0

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def vector(self, x: float, y: float) -> CordicResult:
        """Vectoring mode: rotate ``(x, y)`` onto the x-axis.

        Returns the magnitude in ``x`` and the accumulated rotation angle,
        i.e. ``(|v|, atan2(y, x))``.  This is what the boundary cells of the
        QRD array and the magnitude calculator of the time synchroniser do.
        """
        x0, y0, pre_angle = self._prerotate(float(x), float(y))
        xi, yi, z = x0, y0, pre_angle
        for i in range(self.iterations):
            d = 1.0 if yi >= 0 else -1.0
            xi, yi = (
                self._quantize(xi + d * yi * 2.0 ** (-i)),
                self._quantize(yi - d * xi * 2.0 ** (-i)),
            )
            z += d * self._angles[i]
        if self.compensate_gain:
            xi /= self._gain
            yi /= self._gain
        return CordicResult(
            x=self._quantize(xi),
            y=self._quantize(yi),
            angle=z,
            iterations=self.iterations,
            latency_cycles=self.latency_cycles,
        )

    def rotate(self, x: float, y: float, angle: float) -> CordicResult:
        """Rotation mode: rotate ``(x, y)`` by ``angle`` radians.

        This is what the internal cells of the QRD systolic array do with the
        angles passed along from the boundary cells.
        """
        xi, yi = float(x), float(y)
        z = float(angle)
        # Bring the target angle into the convergence region.
        pre = 0.0
        if z > math.pi / 2.0:
            xi, yi = -xi, -yi
            pre = math.pi
        elif z < -math.pi / 2.0:
            xi, yi = -xi, -yi
            pre = -math.pi
        z -= pre
        for i in range(self.iterations):
            d = 1.0 if z >= 0 else -1.0
            xi, yi = (
                self._quantize(xi - d * yi * 2.0 ** (-i)),
                self._quantize(yi + d * xi * 2.0 ** (-i)),
            )
            z -= d * self._angles[i]
        if self.compensate_gain:
            xi /= self._gain
            yi /= self._gain
        return CordicResult(
            x=self._quantize(xi),
            y=self._quantize(yi),
            angle=z,
            iterations=self.iterations,
            latency_cycles=self.latency_cycles,
        )
