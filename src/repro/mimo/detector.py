"""MIMO detectors (equalisers).

The paper's MIMO decoder multiplies each received frequency-domain vector by
the pre-computed inverse channel matrix for its subcarrier — zero-forcing
(ZF) detection.  :func:`zf_detect` is that detector, applied to the
``inverses`` of a :class:`~repro.mimo.channel_estimation.ChannelEstimate`;
:class:`MmseDetector` is the textbook baseline used by the ablation
benchmarks to quantify what the ZF choice costs at low SNR.  Both take a
stack of bursts, one weight set per burst, and apply it in one einsum.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.mimo.channel_estimation import ChannelEstimate
from repro.mimo.matrix import hermitian
from repro.types import ComplexArray


#: x_hat[m, :, n, k] = W[m, k] @ y[m, :, n, k]
_CONTRACTION = "mkij,mjnk->mink"


def _apply_per_subcarrier(weights: npt.ArrayLike, received: npt.ArrayLike) -> ComplexArray:
    """Multiply per-subcarrier weight matrices into received vectors.

    ``received`` is a stack of bursts, ``(n_items, n_rx, n_symbols,
    fft_size)``, and ``weights`` one weight set per burst, ``(n_items,
    fft_size, n_out, n_rx)``; the result keeps the received layout with
    ``n_out`` replacing ``n_rx``.

    This is the one shape check of both detectors: a rank, stack count,
    FFT size or antenna count that does not match raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    w = np.asarray(weights, dtype=np.complex128)
    y = np.asarray(received, dtype=np.complex128)
    if (w.ndim, y.ndim) != (4, 4):
        raise ConfigurationError(
            f"received {y.shape} does not pair with weights {w.shape}: expected "
            "(n_items, n_rx, n_symbols, fft_size) with (n_items, fft_size, n_out, n_rx)"
        )
    for axis, w_size, y_size in (
        ("stack", w.shape[0], y.shape[0]),
        ("FFT", w.shape[1], y.shape[3]),
        ("antenna", w.shape[3], y.shape[1]),
    ):
        if w_size != y_size:
            raise ConfigurationError(
                f"weights {w.shape} and received {y.shape} disagree on the "
                f"{axis} axis ({w_size} != {y_size})"
            )
    return np.einsum(_CONTRACTION, w, y)


def zf_detect(received: npt.ArrayLike, channel_inverses: npt.ArrayLike) -> ComplexArray:
    """Zero-forcing detection: multiply by the stored ``H^-1`` per subcarrier.

    Parameters
    ----------
    received:
        Frequency-domain received symbols of a stack of bursts, shape
        ``(n_items, n_rx, n_symbols, fft_size)``.
    channel_inverses:
        Pre-computed inverse channel matrices, one set per burst, shape
        ``(n_items, fft_size, n_tx, n_rx)``.

    Returns
    -------
    Equalised transmit-stream estimates, shaped like ``received`` with
    ``n_tx`` replacing ``n_rx``.  Mismatched shapes raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    return _apply_per_subcarrier(channel_inverses, received)


class MmseDetector:
    """Linear MMSE detector baseline.

    Uses the *estimated* channel matrices (not the inverses) and the noise
    variance: ``W_k = (H^H H + sigma^2 I)^-1 H^H``.  The estimate is a
    stack, matrices ``(n_items, fft_size, n_rx, n_tx)``, with one noise
    variance per burst; all its weights come from one stacked solve, and
    :meth:`detect` then takes the bursts stacked the same way.

    A Gram matrix that is exactly singular (a vanishing noise variance on
    a rank-deficient estimate) is a property of the burst, not an error:
    :attr:`singular_subcarriers` names, per burst, its first singular
    active subcarrier (``None`` for none), and that burst's weights stay
    zero.  Every other burst's weights are exactly those of solving it
    alone.
    """

    def __init__(self, estimate: ChannelEstimate, noise_variances: npt.ArrayLike) -> None:
        h = estimate.matrices
        variances = np.asarray(noise_variances, dtype=np.float64)
        if h.ndim != 4 or variances.shape != h.shape[:1]:
            raise ConfigurationError(
                f"estimate {h.shape} does not pair with noise variances "
                f"{variances.shape}: expected (n_items, fft_size, n_rx, n_tx) "
                "with (n_items,)"
            )
        if np.any(variances < 0):
            raise ConfigurationError("noise_variance cannot be negative")
        self.estimate = estimate
        self.noise_variances = variances
        self._weights, self.singular_subcarriers = self._compute_weights()

    def _compute_weights(self) -> Tuple[ComplexArray, List[Optional[int]]]:
        h = self.estimate.matrices
        n_rx, n_tx = h.shape[-2:]
        active = np.flatnonzero(self.estimate.active_mask)
        channel = h[:, active]
        channel_h = hermitian(channel)
        gram = channel_h @ channel + self.noise_variances[:, None, None, None] * np.eye(n_tx)
        singular = np.zeros(gram.shape[:2], dtype=bool)
        try:
            solved = np.linalg.solve(gram, channel_h)
        except np.linalg.LinAlgError:
            # One singular matrix sinks the stacked solve: solve each on
            # its own, which gives the same bytes, and flag the singular.
            solved = np.zeros_like(channel_h)
            for index in np.ndindex(gram.shape[:2]):
                try:
                    solved[index] = np.linalg.solve(gram[index], channel_h[index])
                except np.linalg.LinAlgError:
                    singular[index] = True
        solved[singular.any(axis=1)] = 0.0
        weights = np.zeros(h.shape[:-2] + (n_tx, n_rx), dtype=np.complex128)
        weights[:, active] = solved
        first: List[Optional[int]] = [
            int(active[np.argmax(bad)]) if bad.any() else None for bad in singular
        ]
        return weights, first

    def detect(self, received: npt.ArrayLike) -> ComplexArray:
        """Equalise the stacked bursts ``(n_items, n_rx, n_symbols,
        fft_size)`` of the estimate; any other shape raises
        :class:`~repro.exceptions.ConfigurationError`."""
        return _apply_per_subcarrier(self._weights, received)
