"""Radix-2 FFT/IFFT and OFDM modulation.

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
  datapath; both batch over arbitrary leading axes;
* :func:`ofdm_modulate` — the IFFT + cyclic-prefix step for one OFDM symbol.

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
        """Forward FFT over the last axis (any leading batch axes)."""
        n = self.size
        data = np.asarray(x, dtype=np.complex128)
        if data.shape[-1] != n:
            raise ConfigurationError(f"expected last axis of {n} samples, got {data.shape[-1]}")
        work = data[..., self.bit_reverse].copy()
        for stage, twiddles in enumerate(self.forward_twiddles, start=1):
            m = 1 << stage
            half = m // 2
            work = work.reshape(*work.shape[:-1], n // m, m)
            upper = work[..., :half]
            lower = work[..., half:] * twiddles
            work = np.concatenate([upper + lower, upper - lower], axis=-1)
            work = work.reshape(*work.shape[:-2], n)
        return work

    def inverse(self, x: npt.ArrayLike) -> ComplexArray:
        """Inverse FFT over the last axis (``1/N`` normalisation)."""
        data = np.asarray(x, dtype=np.complex128)
        return np.conj(self.forward(np.conj(data))) / self.size


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


def ofdm_modulate(
    frequency_domain: npt.ArrayLike,
    cyclic_prefix_length: int,
) -> ComplexArray:
    """IFFT + cyclic-prefix insertion for one OFDM symbol.

    The paper's cyclic-prefix block copies the last 25 % of the time-domain
    symbol in front of it; ``cyclic_prefix_length`` expresses that length in
    samples so other ratios can be explored.
    """
    freq = np.asarray(frequency_domain, dtype=np.complex128)
    n = freq.shape[-1]
    _validate_power_of_two(n)
    if not 0 <= cyclic_prefix_length <= n:
        raise ConfigurationError("cyclic prefix length must be between 0 and the FFT size")
    time_domain = ifft(freq)
    if cyclic_prefix_length == 0:
        return time_domain
    prefix = time_domain[..., n - cyclic_prefix_length:]
    return np.concatenate([prefix, time_domain], axis=-1)

