"""Burst time synchronisation (Fig. 4).

The time synchroniser locates the start of a burst while the receiver idles.
It is preloaded with the complex conjugates of the last 16 STS samples and
the first 16 LTS samples; every clock cycle a sliding window of 32 received
samples is multiplied against those stored values and summed (32 complex
multipliers — 128 real 18-bit multipliers in hardware), the magnitude of the
sum is computed with a CORDIC, and the result is compared against a stored
threshold that represents the STS-to-LTS transition peak.  Once the
threshold is exceeded the start of frame is declared.

:class:`TimeSynchronizer` reproduces that structure.  Two detection modes are
provided:

* ``"threshold"`` — the hardware behaviour: the first window whose
  correlation magnitude exceeds ``threshold`` wins;
* ``"peak"`` — a robust software mode that picks the global correlation peak
  (useful in fading/noise sweeps where a fixed absolute threshold would need
  per-SNR tuning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.cordic import cordic_magnitude
from repro.dsp.correlation import cross_correlate
from repro.exceptions import SynchronizationError


@dataclass(frozen=True)
class SyncResult:
    """Outcome of the burst search — one shape for both detection modes.

    Historically the threshold path reported the raw correlation magnitude
    while the peak path reported the energy-normalised metric in the same
    fields, so callers comparing detections across modes (or across
    antennas) compared different quantities.  Both traces are now always
    present and ``peak_magnitude`` is the *detection metric* at the locking
    window in both modes, which is what lets the streaming frame detector
    apply a single acceptance test regardless of the synchroniser's mode.

    Attributes
    ----------
    lts_start:
        Index (into the searched stream) of the first sample of the LTS
        section.
    peak_index:
        Index of the correlator window that triggered the detection.
    peak_magnitude:
        Detection metric at that window — ``metric[peak_index]`` in both
        modes (energy-normalised when the synchroniser normalises).
    locked:
        True when detection succeeded.
    correlation_magnitude:
        The raw correlation magnitude trace in both modes (for
        diagnostics/plots).
    metric:
        The detection-metric trace in both modes: the energy-normalised
        correlation when ``normalize`` is on (scale-invariant, ~1.0 at a
        clean preamble transition), the raw magnitude otherwise.
    """

    lts_start: int
    peak_index: int
    peak_magnitude: float
    locked: bool
    correlation_magnitude: np.ndarray
    metric: np.ndarray


class TimeSynchronizer:
    """Sliding-window preamble correlator with threshold/peak detection.

    Parameters
    ----------
    sts_time:
        Clean time-domain STS section (as transmitted by antenna 0).
    lts_time:
        Clean time-domain LTS section (including its cyclic prefix).
    window_sts / window_lts:
        How many trailing STS and leading LTS samples form the stored
        reference (16 + 16 = 32 in the paper).
    threshold:
        Absolute correlation-magnitude threshold for ``"threshold"`` mode.
        When ``None`` it is derived from the clean-signal autocorrelation
        peak (half of it), mirroring the pre-computed stored threshold.
    mode:
        ``"threshold"`` (hardware behaviour) or ``"peak"``.
    use_cordic_magnitude:
        Compute magnitudes with the CORDIC model instead of ``abs`` (slower,
        hardware-faithful).
    normalize:
        In peak mode, normalise each window's correlation by the window's
        energy before picking the peak.  The hardware relies on a tuned
        absolute threshold instead; normalisation is the software-robust
        equivalent that keeps the peak at the preamble even when the
        four-stream data section is stronger than the single-antenna STS.
    """

    def __init__(
        self,
        sts_time: np.ndarray,
        lts_time: np.ndarray,
        window_sts: int = 16,
        window_lts: int = 16,
        threshold: Optional[float] = None,
        mode: str = "peak",
        use_cordic_magnitude: bool = False,
        normalize: bool = True,
    ) -> None:
        if mode not in ("peak", "threshold"):
            raise ValueError("mode must be 'peak' or 'threshold'")
        sts = np.asarray(sts_time, dtype=np.complex128).ravel()
        lts = np.asarray(lts_time, dtype=np.complex128).ravel()
        if window_sts <= 0 or window_lts <= 0:
            raise ValueError("window lengths must be positive")
        if sts.size < window_sts or lts.size < window_lts:
            raise ValueError("preamble sections shorter than the requested windows")
        self.window_sts = window_sts
        self.window_lts = window_lts
        self.mode = mode
        self.use_cordic_magnitude = use_cordic_magnitude
        self.normalize = normalize
        # The stored reference is the complex conjugate of the expected
        # transition samples, so the correlation sum peaks (real, positive)
        # when the window lines up with the clean waveform.
        expected = np.concatenate([sts[-window_sts:], lts[:window_lts]])
        self.reference = np.conj(expected)
        clean_peak = float(np.abs(np.dot(expected, self.reference)))
        self.threshold = threshold if threshold is not None else 0.5 * clean_peak
        self.clean_peak = clean_peak

    @property
    def window_length(self) -> int:
        """Total correlator window length (32 in the paper)."""
        return self.window_sts + self.window_lts

    # ------------------------------------------------------------------
    def correlate(self, samples: np.ndarray) -> np.ndarray:
        """Correlation magnitude for every window position."""
        correlation = cross_correlate(samples, self.reference)
        if self.use_cordic_magnitude:
            return cordic_magnitude(correlation)
        return np.abs(correlation)

    def normalized_metric(
        self, samples: np.ndarray, magnitude: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Energy-normalised detection metric for every window position.

        Each window's correlation magnitude is divided by the geometric mean
        of the window's energy and the reference's energy, so the metric is
        invariant to channel gain (≈1.0 at a clean preamble transition).
        When ``normalize`` is off this returns the raw magnitude, keeping
        :attr:`SyncResult.metric` meaningful in every configuration.

        A window holding a NaN or infinite sample has no meaningful metric
        and reads 0.0 (no correlation), so a corrupted sample can neither
        win a peak search nor cross a detection threshold.

        ``magnitude`` lets callers that already computed the raw correlation
        trace (e.g. :meth:`search`) avoid a second correlator pass.
        """
        stream = np.asarray(samples, dtype=np.complex128).ravel()
        if magnitude is None:
            magnitude = self.correlate(stream)
        if not self.normalize:
            return np.where(np.isfinite(magnitude), magnitude, 0.0)
        window_energy = np.convolve(
            np.abs(stream) ** 2,
            np.ones(self.window_length),
            mode="valid",
        )
        reference_energy = float(np.sum(np.abs(self.reference) ** 2))
        with np.errstate(invalid="ignore", over="ignore"):
            metric = magnitude / np.sqrt(
                np.maximum(window_energy * reference_energy, 1e-30)
            )
        metric[~np.isfinite(metric)] = 0.0
        return metric

    def search(self, samples: np.ndarray) -> SyncResult:
        """Search a sample stream for the STS-to-LTS transition.

        Raises
        ------
        SynchronizationError
            If the stream is shorter than the window, or (in threshold mode)
            no window exceeds the threshold.
        """
        stream = np.asarray(samples, dtype=np.complex128).ravel()
        if stream.size < self.window_length:
            raise SynchronizationError(
                "sample stream shorter than the correlator window"
            )
        magnitude = self.correlate(stream)
        metric = self.normalized_metric(stream, magnitude=magnitude)

        if self.mode == "threshold":
            # The hardware compares the *raw* magnitude against the stored
            # absolute threshold; only the reporting is normalised.
            above = np.nonzero(magnitude >= self.threshold)[0]
            if above.size == 0:
                raise SynchronizationError(
                    "no correlation window exceeded the synchronisation threshold"
                )
            peak_index = int(above[0])
        else:
            peak_index = int(np.argmax(metric))

        # The window covers the last `window_sts` STS samples followed by the
        # first `window_lts` LTS samples, so the LTS section begins
        # `window_sts` samples after the window start.
        lts_start = peak_index + self.window_sts
        return SyncResult(
            lts_start=lts_start,
            peak_index=peak_index,
            peak_magnitude=float(metric[peak_index]),
            locked=True,
            correlation_magnitude=magnitude,
            metric=metric,
        )
