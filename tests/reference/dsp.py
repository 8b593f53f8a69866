"""Scalar CORDIC reference, raw fixed-point words, concatenating FFT and
one-symbol OFDM modulation.

The one-operation-at-a-time engine the production array engine in
:mod:`repro.dsp.cordic` replaced, kept unchanged (gain-compensation
switch and per-result latency included) as the oracle of its
elementwise agreement test.  Beside it: the raw two's-complement word view
of a :class:`~repro.dsp.fixedpoint.FixedPointFormat`, the radix-2
transform that builds each stage's output by concatenation (the oracle of
the in-place :class:`~repro.dsp.fft.FftPlan`), and the per-symbol
IFFT + cyclic prefix the batched transmitter replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dsp.fft import get_plan, ifft
from repro.dsp.fixedpoint import FixedPointFormat
from repro.exceptions import ConfigurationError

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


def to_integers(fmt: FixedPointFormat, values) -> np.ndarray:
    """Raw integer (LSB-unit) words of real ``values`` quantised to ``fmt``."""
    quantised = fmt.quantize(values)
    return np.round(quantised / fmt.resolution).astype(np.int64)


def from_integers(fmt: FixedPointFormat, raw) -> np.ndarray:
    """Real values of raw integer (LSB-unit) words of ``fmt``."""
    ints = np.asarray(raw, dtype=np.int64)
    lo, hi = fmt.integer_range
    if ints.size and (ints.min() < lo or ints.max() > hi):
        raise ConfigurationError("raw integers outside representable range")
    return ints.astype(np.float64) * fmt.resolution


def quantization_noise_power(fmt: FixedPointFormat) -> float:
    """Theoretical quantisation-noise power of ``fmt`` (uniform model, LSB²/12)."""
    return fmt.resolution ** 2 / 12.0


def fft_concatenating(x) -> np.ndarray:
    """Radix-2 DIT FFT over the last axis, each stage's sums and differences
    joined by ``np.concatenate``; the plan's permutation and twiddles."""
    data = np.asarray(x, dtype=np.complex128)
    plan = get_plan(data.shape[-1])
    n = plan.size
    work = data[..., plan.bit_reverse].copy()
    for stage, twiddles in enumerate(plan.forward_twiddles, start=1):
        m = 1 << stage
        half = m // 2
        work = work.reshape(*work.shape[:-1], n // m, m)
        upper = work[..., :half]
        lower = work[..., half:] * twiddles
        work = np.concatenate([upper + lower, upper - lower], axis=-1)
        work = work.reshape(*work.shape[:-2], n)
    return work


def ifft_concatenating(x) -> np.ndarray:
    """Inverse of :func:`fft_concatenating` (conjugate trick, ``1/N``)."""
    data = np.asarray(x, dtype=np.complex128)
    return np.conj(fft_concatenating(np.conj(data))) / data.shape[-1]


def ofdm_modulate(frequency_domain, cyclic_prefix_length: int) -> np.ndarray:
    """IFFT + cyclic-prefix insertion for one OFDM symbol.

    The paper's cyclic-prefix block copies the last 25 % of the time-domain
    symbol in front of it; ``cyclic_prefix_length`` is that length in samples.
    """
    freq = np.asarray(frequency_domain, dtype=np.complex128)
    n = freq.shape[-1]
    if n < 2 or n & (n - 1):
        raise ConfigurationError(f"FFT size must be a power of two >= 2, got {n}")
    if not 0 <= cyclic_prefix_length <= n:
        raise ConfigurationError("cyclic prefix length must be between 0 and the FFT size")
    time_domain = ifft(freq)
    if cyclic_prefix_length == 0:
        return time_domain
    prefix = time_domain[..., n - cyclic_prefix_length:]
    return np.concatenate([prefix, time_domain], axis=-1)
