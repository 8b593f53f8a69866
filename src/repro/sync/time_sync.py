"""Burst time synchronisation (Fig. 4).

The time synchroniser locates the start of a burst while the receiver idles.
It is preloaded with the complex conjugates of the last 16 STS samples and
the first 16 LTS samples; every clock cycle a sliding window of 32 received
samples is multiplied against those stored values and summed (32 complex
multipliers — 128 real 18-bit multipliers in hardware), and the magnitude of
the sum marks the STS-to-LTS transition.

:class:`TimeSynchronizer` is the one sync stage of the burst receiver and
the stream frame detector.  Its one detection metric,
:meth:`~TimeSynchronizer.metric`, normalises each window's correlation by
the window's and the reference's energy, so it ignores the channel gain
(~1.0 at a clean transition) where the hardware tunes an absolute
threshold.  Its one lock rule, :meth:`~TimeSynchronizer.locate`, takes the
strongest (antenna, window): the STS leaves antenna 0 only, and each
receive antenna hears it through a different gain.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, SynchronizationError

#: Trailing STS samples in the stored correlator reference (Fig. 4).
WINDOW_STS = 16
#: Leading LTS samples in the stored correlator reference (Fig. 4).
WINDOW_LTS = 16


class TimeSynchronizer:
    """Sliding-window STS/LTS preamble correlator with a peak lock.

    Parameters
    ----------
    sts_time:
        Clean time-domain STS section (as transmitted by antenna 0).
    lts_time:
        Clean time-domain LTS section (including its cyclic prefix).

    Raises :class:`~repro.exceptions.ConfigurationError` when a section is
    shorter than its part of the 16 + 16 sample window.
    """

    window_sts = WINDOW_STS
    #: Total correlator window length (32 in the paper).
    window_length = WINDOW_STS + WINDOW_LTS

    def __init__(self, sts_time: np.ndarray, lts_time: np.ndarray) -> None:
        sts = np.asarray(sts_time, dtype=np.complex128).ravel()
        lts = np.asarray(lts_time, dtype=np.complex128).ravel()
        if sts.size < WINDOW_STS or lts.size < WINDOW_LTS:
            raise ConfigurationError(
                "preamble sections shorter than the 16 + 16 sample correlator window"
            )
        # The stored reference is the complex conjugate of the expected
        # transition samples, so the correlation sum peaks (real, positive)
        # when the window lines up with the clean waveform.
        expected = np.concatenate([sts[-WINDOW_STS:], lts[:WINDOW_LTS]])
        self.reference = np.conj(expected)
        # np.correlate conjugates its second argument, so handing it the
        # expected samples multiplies every window by the stored reference.
        self._expected = expected
        self._reference_energy = float(np.sum(np.abs(self.reference) ** 2))
        self._ones = np.ones(self.window_length)

    def metric(self, streams: np.ndarray) -> np.ndarray:
        """Energy-normalised detection metric of every antenna and window.

        Maps ``(n_rx, n)`` samples to ``(n_rx, n - 31)`` metric values; a 1-D
        stream counts as one antenna.  Each window's correlation magnitude
        is divided by the geometric mean of the window's and the
        reference's energy.  A window holding a NaN or infinite sample has
        no meaningful metric and reads 0.0, so a corrupted sample can never
        win a lock.

        Raises :class:`~repro.exceptions.SynchronizationError` when the
        streams are shorter than the window, and
        :class:`~repro.exceptions.ConfigurationError` on any other rank or
        on an empty antenna axis.
        """
        x = np.asarray(streams, dtype=np.complex128)
        if x.ndim == 1:
            x = x[np.newaxis, :]
        if x.ndim != 2 or x.shape[0] == 0:
            raise ConfigurationError(
                f"streams must have shape (n_rx, n_samples), got {x.shape}"
            )
        if x.shape[1] < self.window_length:
            raise SynchronizationError("sample stream shorter than the correlator window")
        magnitude = np.empty((x.shape[0], x.shape[1] - self.window_length + 1))
        energy = np.empty_like(magnitude)
        # Huge or non-finite samples overflow into values the last line zeroes.
        with np.errstate(invalid="ignore", over="ignore"):
            power = np.abs(x) ** 2
            for antenna in range(x.shape[0]):
                correlation = np.correlate(x[antenna], self._expected, mode="valid")
                magnitude[antenna] = np.abs(correlation)
                energy[antenna] = np.convolve(power[antenna], self._ones, mode="valid")
            metric = magnitude / np.sqrt(
                np.maximum(energy * self._reference_energy, 1e-30)
            )
        metric[~np.isfinite(metric)] = 0.0
        return metric

    def locate(self, streams: np.ndarray) -> int:
        """LTS start of the strongest (antenna, window) of :meth:`metric`.

        Ties go to the first antenna holding the maximum, at its first such
        window.  The window covers the last 16 STS samples followed by the
        first 16 LTS samples, so the LTS begins 16 samples after the peak.

        Raises :class:`~repro.exceptions.SynchronizationError` when no
        window scores above 0 (e.g. every window is silent or holds a NaN
        or infinite sample), besides the errors of :meth:`metric`.
        """
        metric = self.metric(streams)
        peak = int(np.argmax(metric))
        if not metric.flat[peak] > 0.0:
            raise SynchronizationError("no receive antenna yielded a correlation peak")
        return peak % metric.shape[1] + self.window_sts
