"""MIMO detectors (equalisers).

The paper's MIMO decoder multiplies each received frequency-domain vector by
the pre-computed inverse channel matrix for its subcarrier — zero-forcing
(ZF) detection.  :func:`zf_detect` is that detector, applied to the
``inverses`` of a :class:`~repro.mimo.channel_estimation.ChannelEstimate`;
:class:`MmseDetector` is the textbook baseline used by the ablation
benchmarks to quantify what the ZF choice costs at low SNR.  Both take one
OFDM symbol, one burst or a stack of bursts.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError, DecodingError
from repro.mimo.channel_estimation import ChannelEstimate
from repro.mimo.matrix import hermitian
from repro.types import ComplexArray


#: ``einsum`` subscripts per received rank: one symbol, one burst, a stack.
_CONTRACTIONS = {
    2: "kij,jk->ik",  # x_hat[:, k] = W[k] @ y[:, k]
    3: "kij,jnk->ink",  # x_hat[:, n, k] = W[k] @ y[:, n, k]
    4: "mkij,mjnk->mink",  # x_hat[m, :, n, k] = W[m, k] @ y[m, :, n, k]
}


def _apply_per_subcarrier(weights: npt.ArrayLike, received: npt.ArrayLike) -> ComplexArray:
    """Multiply per-subcarrier weight matrices into received vectors.

    ``weights`` has shape ``(fft_size, n_out, n_rx)``.  ``received`` is either
    one OFDM symbol, shape ``(n_rx, fft_size)``, or a whole burst of them,
    shape ``(n_rx, n_symbols, fft_size)``; the result keeps the layout with
    ``n_out`` replacing ``n_rx``.  A stack of bursts, ``(n_items, n_rx,
    n_symbols, fft_size)``, takes one weight set per burst, ``(n_items,
    fft_size, n_out, n_rx)``.  Every form contracts the antenna axis in the
    same index order, so the batched products are bit-identical to applying
    the 2-D form symbol by symbol.

    This is the one shape check of both detectors: a rank pairing, stack
    count, FFT size or antenna count that does not match raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    w = np.asarray(weights, dtype=np.complex128)
    y = np.asarray(received, dtype=np.complex128)
    if (w.ndim, y.ndim) not in ((3, 2), (3, 3), (4, 4)):
        raise ConfigurationError(
            f"received {y.shape} does not pair with weights {w.shape}: expected "
            "(n_rx, fft_size) or (n_rx, n_symbols, fft_size) with "
            "(fft_size, n_out, n_rx), or (n_items, n_rx, n_symbols, fft_size) "
            "with (n_items, fft_size, n_out, n_rx)"
        )
    rx_axis = w.ndim - 3  # 1 behind the stack axis, else 0
    for axis, w_size, y_size in (
        ("stack", w.shape[:rx_axis], y.shape[:rx_axis]),
        ("FFT", w.shape[-3], y.shape[-1]),
        ("antenna", w.shape[-1], y.shape[rx_axis]),
    ):
        if w_size != y_size:
            raise ConfigurationError(
                f"weights {w.shape} and received {y.shape} disagree on the "
                f"{axis} axis ({w_size} != {y_size})"
            )
    return np.einsum(_CONTRACTIONS[y.ndim], w, y)


def zf_detect(received: npt.ArrayLike, channel_inverses: npt.ArrayLike) -> ComplexArray:
    """Zero-forcing detection: multiply by the stored ``H^-1`` per subcarrier.

    Parameters
    ----------
    received:
        Frequency-domain received symbols — one OFDM symbol of shape
        ``(n_rx, fft_size)``, a whole burst of shape
        ``(n_rx, n_symbols, fft_size)``, or a stack of bursts of shape
        ``(n_items, n_rx, n_symbols, fft_size)``.
    channel_inverses:
        Pre-computed inverse channel matrices, shape ``(fft_size, n_tx,
        n_rx)``, or one set per burst of a stack, ``(n_items, fft_size,
        n_tx, n_rx)``.

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
    variance: ``W_k = (H^H H + sigma^2 I)^-1 H^H``.  A stacked estimate
    (matrices ``(n_items, fft_size, n_rx, n_tx)``) takes one noise variance
    per burst; all its weights come from one stacked solve, and
    :meth:`detect` then takes the bursts stacked the same way.
    """

    def __init__(
        self, estimate: ChannelEstimate, noise_variance: Union[float, npt.ArrayLike]
    ) -> None:
        if np.any(np.asarray(noise_variance) < 0):
            raise ConfigurationError("noise_variance cannot be negative")
        self.estimate = estimate
        self.noise_variance = noise_variance
        self._weights = self._compute_weights()

    def _compute_weights(self) -> np.ndarray:
        h = self.estimate.matrices
        n_rx, n_tx = h.shape[-2:]
        active = np.flatnonzero(self.estimate.active_mask)
        channel = h[..., active, :, :]
        channel_h = hermitian(channel)
        variance = np.asarray(self.noise_variance, dtype=np.float64)
        gram = channel_h @ channel + variance[..., None, None, None] * np.eye(n_tx)
        try:
            solved = np.linalg.solve(gram, channel_h)
        except np.linalg.LinAlgError as error:
            # With noise_variance == 0 the regulariser vanishes and a
            # rank-deficient channel estimate makes the Gram matrix
            # exactly singular.  That is a property of the burst, not a
            # programming error: surface it as the receive-chain failure
            # the sweep engine already counts as a lost frame.
            index = next(i for i in np.ndindex(gram.shape[:-2]) if _is_singular(gram[i]))
            raise DecodingError(
                f"MMSE Gram matrix is singular on subcarrier {active[index[-1]]} "
                f"(noise_variance={self.noise_variance})"
            ) from error
        weights = np.zeros(h.shape[:-2] + (n_tx, n_rx), dtype=np.complex128)
        weights[..., active, :, :] = solved
        return weights

    def detect(self, received: npt.ArrayLike) -> ComplexArray:
        """Equalise one symbol ``(n_rx, fft_size)``, a burst ``(n_rx,
        n_symbols, fft_size)`` or, for a stacked estimate, the stacked
        bursts ``(n_items, n_rx, n_symbols, fft_size)``; any other shape
        raises :class:`~repro.exceptions.ConfigurationError`."""
        return _apply_per_subcarrier(self._weights, received)


def _is_singular(gram: np.ndarray) -> bool:
    """True when ``solve`` rejects this one Gram matrix as singular."""
    try:
        np.linalg.solve(gram, np.eye(gram.shape[-1]))
    except np.linalg.LinAlgError:
        return True
    return False
