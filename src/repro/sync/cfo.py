"""Carrier-frequency-offset (CFO) estimation from the repetitive preamble.

The paper's receiver corrects residual *phase* errors with the pilot tones
but does not describe an explicit CFO estimator; any practical deployment of
the architecture needs one, and the preamble it already transmits (a periodic
STS and two identical LTS repetitions) is exactly what classic
Moose/Schmidl-Cox style estimators use.  This module provides that extension:

* **coarse** estimation from the short-training section, whose period is
  ``fft_size / 4`` samples — wide acquisition range, low accuracy;
* **fine** estimation from the two long-training repetitions, separated by
  ``fft_size`` samples — narrow range (±1/(2·fft_size) cycles/sample), high
  accuracy;
* a combined estimate, removed by rotating the stream back with
  :func:`repro.channel.impairments.apply_carrier_frequency_offset`.

The estimator is optional on the receive path
(:class:`repro.core.config.TransceiverConfig.correct_cfo`); it is an
extension beyond the paper, measured by
``benchmarks/test_ablation_cfo_correction.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import numpy.typing as npt

from repro.types import ComplexArray
from repro.channel.impairments import apply_carrier_frequency_offset
from repro.core.preamble import PreambleGenerator
from repro.exceptions import ConfigurationError, SynchronizationError


def estimate_cfo_from_repetition(
    samples: npt.ArrayLike, period: int, start: int, n_periods: int
) -> float:
    """Estimate a normalised CFO from a periodic section of a sample stream.

    Correlates each sample with the sample one ``period`` later over
    ``(n_periods - 1) * period`` lags starting at ``start``; the angle of the
    accumulated correlation divided by ``2*pi*period`` is the CFO in cycles
    per sample.  Multi-antenna input (shape ``(n_rx, n_samples)``) is
    combined coherently across antennas.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    if period <= 0 or n_periods < 2:
        raise ConfigurationError("period must be positive and n_periods at least 2")
    span = (n_periods - 1) * period
    if start < 0 or start + span + period > x.shape[1]:
        raise SynchronizationError("repetitive section extends past the sample stream")
    segment = x[:, start : start + span]
    delayed = x[:, start + period : start + period + span]
    correlation = np.sum(delayed * np.conj(segment))
    if correlation == 0:
        return 0.0
    return float(np.angle(correlation) / (2.0 * np.pi * period))


@dataclass(frozen=True)
class CfoEstimate:
    """Result of preamble-based CFO estimation (cycles per sample)."""

    coarse: float
    fine: float
    combined: float


class CfoEstimator:
    """Coarse + fine CFO estimation from the STS/LTS preamble.

    Parameters
    ----------
    fft_size:
        OFDM transform length (sets the STS period and LTS repetition
        spacing).
    """

    def __init__(self, fft_size: int = 64) -> None:
        self.preamble = PreambleGenerator.for_fft_size(fft_size)
        self.fft_size = fft_size
        self.sts_period = fft_size // 4
        self.lts_period = fft_size

    # ------------------------------------------------------------------
    def coarse(self, samples: npt.ArrayLike, sts_start: int) -> float:
        """Coarse CFO from the 10 short-training repetitions."""
        # Use 8 of the 10 repetitions, skipping the first (transient) one.
        return estimate_cfo_from_repetition(
            samples,
            period=self.sts_period,
            start=sts_start + self.sts_period,
            n_periods=8,
        )

    def fine(self, samples: npt.ArrayLike, lts_start: int) -> float:
        """Fine CFO from the two long-training repetitions of slot 0."""
        lts_cp = self.preamble.lts_cp_length
        return estimate_cfo_from_repetition(
            samples,
            period=self.lts_period,
            start=lts_start + lts_cp,
            n_periods=2,
        )

    def estimate(self, samples: npt.ArrayLike, lts_start: int) -> CfoEstimate:
        """Combined coarse + fine estimate.

        The coarse estimate resolves the ambiguity of the fine one: the fine
        estimate is taken relative to the nearest multiple of its
        (1/fft_size) ambiguity interval implied by the coarse value.
        """
        sts_length = self.preamble.sts_time().size
        sts_start = lts_start - sts_length
        coarse = self.coarse(samples, sts_start) if sts_start >= 0 else 0.0
        fine = self.fine(samples, lts_start)
        ambiguity = 1.0 / self.lts_period
        # Unwrap the fine estimate onto the coarse one.
        k = np.round((coarse - fine) / ambiguity)
        combined = fine + k * ambiguity
        return CfoEstimate(coarse=coarse, fine=fine, combined=float(combined))

    def correct(self, samples: npt.ArrayLike, estimate: CfoEstimate) -> ComplexArray:
        """Remove the combined CFO estimate from a sample stream."""
        return apply_carrier_frequency_offset(samples, -estimate.combined)
