"""Per-subcarrier MIMO channel estimation and inversion.

The receiver estimates a 4x4 channel matrix on every subcarrier from the
staggered LTS preamble (each transmit antenna sends the LTS in its own time
slot, Fig. 2, and each slot contains two LTS repetitions that are averaged).
The estimated matrices are then inverted — QR decomposition, back
substitution of R, and the ``R^-1 Q^H`` multiply — and the inverses stored in
the channel-estimate memories used by the MIMO detector.

:class:`ChannelEstimator` packages the whole process for a stack of
bursts, side by side like the paper's per-subcarrier QRD arrays: one
stacked :class:`ChannelEstimate` — the channel-estimate memory the
detector reads, one row per burst — and one
:class:`~repro.exceptions.ChannelEstimationError` or ``None`` per burst.
The lower-level functions are exposed for tests and benchmarks;
:func:`invert_channel_stack` flags a singular matrix in its mask rather
than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

import numpy.typing as npt

from repro.dsp.cordic import Cordic
from repro.types import ComplexArray
from repro.exceptions import ChannelEstimationError, ConfigurationError
from repro.mimo.matrix import hermitian
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular, singular_mask


def estimate_channel_from_lts(
    received_lts: npt.ArrayLike,
    reference_lts: npt.ArrayLike,
    active_mask: Optional[npt.NDArray[np.bool_]] = None,
) -> ComplexArray:
    """Estimate per-subcarrier channel matrices from staggered LTS symbols.

    Parameters
    ----------
    received_lts:
        Frequency-domain received LTS, shape ``(n_tx_slots, n_rx, fft_size)``:
        element ``[j, i, k]`` is what receive antenna ``i`` observed on
        subcarrier ``k`` while transmit antenna ``j`` was sending its LTS
        (already averaged over the two LTS repetitions).  Leading axes
        stack the observations of several bursts.
    reference_lts:
        Known frequency-domain LTS values per subcarrier, shape
        ``(fft_size,)``.  Subcarriers where the reference is zero (guards,
        DC) are left as zero in the estimate.
    active_mask:
        Optional boolean mask of subcarriers to estimate; defaults to the
        non-zero entries of ``reference_lts``.

    Returns
    -------
    Channel estimate of shape ``(..., fft_size, n_rx, n_tx)``.
    """
    rx = np.asarray(received_lts, dtype=np.complex128)
    ref = np.asarray(reference_lts, dtype=np.complex128).ravel()
    if rx.ndim < 3:
        raise ConfigurationError("received_lts must have shape (..., n_tx, n_rx, fft_size)")
    n_tx, n_rx, fft_size = rx.shape[-3:]
    if ref.size != fft_size:
        raise ConfigurationError("reference_lts length must equal the FFT size")
    if active_mask is None:
        active_mask = np.abs(ref) > 0
    else:
        active_mask = np.asarray(active_mask, dtype=bool).ravel()
        if active_mask.size != fft_size:
            raise ConfigurationError("active_mask length must equal the FFT size")

    active = np.flatnonzero(active_mask)
    zero = active[ref[active] == 0]
    if zero.size:
        raise ChannelEstimationError(
            f"subcarrier {zero[0]} is marked active but the reference LTS is zero there"
        )
    estimate = np.zeros(rx.shape[:-3] + (fft_size, n_rx, n_tx), dtype=np.complex128)
    # H[..., k, i, j] = Y_i^{(j)}(k) / LTS(k)
    ratio = rx[..., active] / ref[active]
    estimate[..., active, :, :] = np.moveaxis(ratio, -1, -3).swapaxes(-1, -2)
    return estimate


def invert_channel_stack(
    channel: npt.ArrayLike,
    active_mask: Optional[npt.NDArray[np.bool_]] = None,
    cordic: Optional[Cordic] = None,
) -> Tuple[ComplexArray, npt.NDArray[np.bool_]]:
    """Invert per-subcarrier channel matrices via QR decomposition.

    Implements the paper's pipeline: ``H = Q R``; ``H^-1 = R^-1 Q^H``.

    Parameters
    ----------
    channel:
        Channel matrices, shape ``(..., fft_size, n_rx, n_tx)`` with
        ``n_rx == n_tx``.
    active_mask:
        Subcarriers to invert (defaults to those whose matrix is non-zero).
    cordic:
        When given, every angle and rotation of the QR decomposition is
        evaluated by this CORDIC engine instead of floating-point
        trigonometry.

    Returns
    -------
    ``(inverses, singular)``: ``singular`` has the shape of the stack
    without its matrix axes and marks every active matrix whose R is
    singular; those inverses are left zero.  Every other matrix is
    inverted exactly as on its own, so one bad burst of a stacked receive
    pass cannot sink the rest.
    """
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim < 3 or h.shape[-1] != h.shape[-2]:
        raise ConfigurationError("channel must have shape (..., fft_size, n, n)")
    fft_size = h.shape[-3]
    if active_mask is None:
        active = np.any(h != 0, axis=(-2, -1))
    else:
        active_mask = np.asarray(active_mask, dtype=bool).ravel()
        if active_mask.size != fft_size:
            raise ConfigurationError("active_mask length must equal the FFT size")
        active = np.broadcast_to(active_mask, h.shape[:-2])

    inverses = np.zeros_like(h)
    singular = np.zeros(h.shape[:-2], dtype=bool)
    selected = h[active]
    if not selected.size:
        return inverses, singular
    # Every active subcarrier of every stacked estimate in one QR and one
    # R^-1, like the paper's per-subcarrier arrays side by side.
    q, r = qr_decompose_givens(selected, cordic=cordic)
    bad = singular_mask(r)
    good = ~bad
    selected_inverses = np.zeros_like(selected)
    if np.any(good):
        selected_inverses[good] = invert_upper_triangular(r[good]) @ hermitian(q[good])
    inverses[active] = selected_inverses
    singular[active] = bad
    return inverses, singular


@dataclass
class ChannelEstimate:
    """Channel estimation result.

    Attributes
    ----------
    matrices:
        Estimated channel matrices per subcarrier, ``(fft_size, n_rx, n_tx)``.
        Leading axes, when present, stack the estimates of several bursts
        (what a stacked receive pass hands its detector).
    inverses:
        Zero-forcing equalisation matrices per subcarrier (``H^-1``), same
        shape; zero on inactive subcarriers.
    active_mask:
        Boolean mask of the subcarriers that were estimated.
    """

    matrices: ComplexArray
    inverses: ComplexArray
    active_mask: npt.NDArray[np.bool_]

    def __getitem__(self, rows) -> "ChannelEstimate":
        """The estimate of the bursts ``rows`` of a stacked estimate: one
        burst's views for an integer, a stacked copy for an index list."""
        return ChannelEstimate(self.matrices[rows], self.inverses[rows], self.active_mask)


class ChannelEstimator:
    """LTS-based channel estimator with QRD inversion.

    Parameters
    ----------
    reference_lts:
        Known frequency-domain LTS values per subcarrier.
    cordic:
        When given, the QR decomposition runs in this CORDIC engine's
        arithmetic (hardware-faithful iteration and word-length behaviour)
        instead of floating point.
    """

    def __init__(
        self, reference_lts: np.ndarray, cordic: Optional[Cordic] = None
    ) -> None:
        self.reference_lts = np.asarray(reference_lts, dtype=np.complex128).ravel()
        if self.reference_lts.size == 0:
            raise ConfigurationError("reference_lts must not be empty")
        self.cordic = cordic
        self.active_mask = np.abs(self.reference_lts) > 0
        # Shared by every estimate this estimator returns.
        self.active_mask.flags.writeable = False

    def estimate(
        self, received_lts: np.ndarray
    ) -> Tuple[ChannelEstimate, List[Optional[ChannelEstimationError]]]:
        """Estimate and invert the channel of a stack of bursts.

        ``received_lts`` holds each burst's staggered LTS observations,
        shape ``(n_items, n_tx, n_rx, fft_size)``.  The whole stack runs
        through one estimate and one stacked QR/R^-1.  Returns the stacked
        :class:`ChannelEstimate`, one row per burst, and one entry per
        burst: ``None``, or the
        :class:`~repro.exceptions.ChannelEstimationError` naming its first
        rank-deficient subcarrier — so a rank-deficient burst drops out
        alone (its row's inverses are zero there and meaningless).
        """
        received = np.asarray(received_lts, dtype=np.complex128)
        if received.ndim != 4:
            raise ConfigurationError(
                "received_lts must have shape (n_items, n_tx, n_rx, fft_size)"
            )
        matrices = estimate_channel_from_lts(
            received, self.reference_lts, self.active_mask
        )
        inverses, singular = invert_channel_stack(
            matrices, self.active_mask, cordic=self.cordic
        )
        errors = [
            ChannelEstimationError(
                f"channel matrix on subcarrier {np.argmax(bad)} is rank "
                "deficient; zero-forcing equalisation is impossible"
            )
            if bad.any()
            else None
            for bad in singular
        ]
        return ChannelEstimate(matrices, inverses, self.active_mask), errors
