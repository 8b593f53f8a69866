"""Radix-2 FFT/IFFT.

The paper's transmitter converts mapped symbols to the time domain with an
IFFT per antenna and the receiver converts back with an FFT per antenna
(64-point in the evaluated configuration, with a 512-point variant discussed
in Section V).  This module provides:

* :class:`FftPlan` / :func:`get_plan` — a cached transform *plan* per size
  (bit-reverse permutation and per-stage twiddle tables computed once), so
  hot loops never rebuild them per call;
* :func:`fft` / :func:`ifft` — an in-house iterative radix-2
  decimation-in-time implementation (mirroring a streaming hardware core) so
  the reproduction does not silently depend on ``numpy.fft`` for its core
  datapath; both batch over arbitrary leading axes.

There is one transform arithmetic: the receiver models its fixed-point
datapath by quantising the FFT output (``rx_multiplier_format``), not with a
second, quantised butterfly core.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.types import ComplexArray, IntArray


def _validate_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"FFT size must be a power of two >= 2, got {n}")


def bit_reverse_indices(n: int) -> IntArray:
    """Bit-reversed index permutation used by the radix-2 FFT input stage."""
    _validate_power_of_two(n)
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


class FftPlan:
    """Precomputed radix-2 transform data for one FFT size.

    A plan owns everything about the transform that depends only on its
    size — the bit-reverse input permutation and one forward twiddle table
    per butterfly stage; the inverse reuses them through the conjugate trick.  The batched receive
    chain runs thousands of transforms per burst; computing these tables
    once per size (see :func:`get_plan`) instead of once per call is what
    makes the FFT itself disappear from the profile.

    The tables hold exactly the values the original per-call code computed
    (same ``np.exp`` expressions), so planned transforms are bit-identical
    to the historical unplanned ones.
    """

    def __init__(self, size: int) -> None:
        _validate_power_of_two(size)
        self.size = size
        self.stages = size.bit_length() - 1
        self.bit_reverse = bit_reverse_indices(size)
        self.forward_twiddles: List[np.ndarray] = []
        for stage in range(1, self.stages + 1):
            m = 1 << stage
            half = m // 2
            self.forward_twiddles.append(np.exp(-2j * np.pi * np.arange(half) / m))

    # ------------------------------------------------------------------
    def forward(self, x: npt.ArrayLike) -> ComplexArray:
        """Forward FFT over the last axis (any leading batch axes).

        Each butterfly stage reads one buffer and writes its sums and
        differences straight into the halves of the other (a ping-pong
        pair, as a streaming core alternates its stage memories).  The
        twiddle products go to a contiguous buffer of their own: written
        in place over its input, numpy's complex multiply can give a NaN
        other sign or payload bits, and this layout keeps every value
        byte-identical to concatenating each stage's halves.
        """
        n = self.size
        data = np.asarray(x, dtype=np.complex128)
        if data.shape[-1] != n:
            raise ConfigurationError(f"expected last axis of {n} samples, got {data.shape[-1]}")
        lead = data.shape[:-1]
        # Both buffers C-contiguous, so every reshape below is a view.
        work = np.empty(data.shape, dtype=np.complex128)
        np.take(data, self.bit_reverse, axis=-1, out=work, mode="clip")
        spare = np.empty(data.shape, dtype=np.complex128)
        twiddled = np.empty((*lead, n // 2), dtype=np.complex128)
        for stage, twiddles in enumerate(self.forward_twiddles, start=1):
            m = 1 << stage
            half = m // 2
            source = work.reshape(*lead, n // m, m)
            target = spare.reshape(*lead, n // m, m)
            upper = source[..., :half]
            lower = twiddled.reshape(*lead, n // m, half)
            np.multiply(source[..., half:], twiddles, out=lower)
            np.add(upper, lower, out=target[..., :half])
            np.subtract(upper, lower, out=target[..., half:])
            work, spare = spare, work
        return work

    def inverse(self, x: npt.ArrayLike) -> ComplexArray:
        """Inverse FFT over the last axis (``1/N`` normalisation)."""
        data = np.asarray(x, dtype=np.complex128)
        out = self.forward(np.conj(data))
        np.conjugate(out, out=out)
        out /= self.size
        return out


@lru_cache(maxsize=32)
def get_plan(size: int) -> FftPlan:
    """The shared :class:`FftPlan` for ``size`` (built once per process)."""
    return FftPlan(size)


def fft(x: npt.ArrayLike) -> ComplexArray:
    """Iterative radix-2 decimation-in-time FFT.

    Matches ``numpy.fft.fft`` to floating-point precision; implemented
    explicitly so the butterfly structure mirrors the streaming hardware
    core.  Batches over arbitrary leading axes, transforming the last axis;
    the permutation and twiddles come from the cached per-size
    :class:`FftPlan`.
    """
    data = np.asarray(x, dtype=np.complex128)
    return get_plan(data.shape[-1]).forward(data)


def ifft(x: npt.ArrayLike) -> ComplexArray:
    """Inverse FFT matching ``numpy.fft.ifft`` (1/N normalisation)."""
    data = np.asarray(x, dtype=np.complex128)
    return get_plan(data.shape[-1]).inverse(data)

