"""Per-subcarrier MIMO channel estimation and inversion.

The receiver estimates a 4x4 channel matrix on every subcarrier from the
staggered LTS preamble (each transmit antenna sends the LTS in its own time
slot, Fig. 2, and each slot contains two LTS repetitions that are averaged).
The estimated matrices are then inverted — QR decomposition, back
substitution of R, and the ``R^-1 Q^H`` multiply — and the inverses stored in
the channel-estimate memories used by the MIMO detector.

:class:`ChannelEstimator` packages the whole process; the lower-level
functions are exposed for tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

import numpy.typing as npt

from repro.types import ComplexArray
from repro.exceptions import ChannelEstimationError
from repro.mimo.matrix import hermitian
from repro.mimo.qr import CordicQrDecomposer, qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular


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
        (already averaged over the two LTS repetitions).
    reference_lts:
        Known frequency-domain LTS values per subcarrier, shape
        ``(fft_size,)``.  Subcarriers where the reference is zero (guards,
        DC) are left as zero in the estimate.
    active_mask:
        Optional boolean mask of subcarriers to estimate; defaults to the
        non-zero entries of ``reference_lts``.

    Returns
    -------
    Channel estimate of shape ``(fft_size, n_rx, n_tx)``.
    """
    rx = np.asarray(received_lts, dtype=np.complex128)
    ref = np.asarray(reference_lts, dtype=np.complex128).ravel()
    if rx.ndim != 3:
        raise ValueError("received_lts must have shape (n_tx, n_rx, fft_size)")
    n_tx, n_rx, fft_size = rx.shape
    if ref.size != fft_size:
        raise ValueError("reference_lts length must equal the FFT size")
    if active_mask is None:
        active_mask = np.abs(ref) > 0
    else:
        active_mask = np.asarray(active_mask, dtype=bool).ravel()
        if active_mask.size != fft_size:
            raise ValueError("active_mask length must equal the FFT size")

    estimate = np.zeros((fft_size, n_rx, n_tx), dtype=np.complex128)
    for k in np.nonzero(active_mask)[0]:
        if ref[k] == 0:
            raise ChannelEstimationError(
                f"subcarrier {k} is marked active but the reference LTS is zero there"
            )
        # H[i, j] = Y_i^{(j)}(k) / LTS(k)
        estimate[k] = (rx[:, :, k] / ref[k]).T
    return estimate


def invert_channel_matrices(
    channel: npt.ArrayLike,
    active_mask: Optional[npt.NDArray[np.bool_]] = None,
    use_cordic: bool = False,
    cordic_iterations: int = 16,
) -> ComplexArray:
    """Invert per-subcarrier channel matrices via QR decomposition.

    Implements the paper's pipeline: ``H = Q R``; ``H^-1 = R^-1 Q^H``.

    Parameters
    ----------
    channel:
        Channel matrices, shape ``(fft_size, n_rx, n_tx)`` with
        ``n_rx == n_tx``.
    active_mask:
        Subcarriers to invert (defaults to those whose matrix is non-zero).
    use_cordic:
        Route every rotation through the CORDIC engine instead of
        floating-point trigonometry.
    cordic_iterations:
        CORDIC micro-rotation count when ``use_cordic`` is set.
    """
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("channel must have shape (fft_size, n, n)")
    fft_size = h.shape[0]
    if active_mask is None:
        active_mask = np.any(h != 0, axis=(1, 2))
    else:
        active_mask = np.asarray(active_mask, dtype=bool).ravel()
        if active_mask.size != fft_size:
            raise ValueError("active_mask length must equal the FFT size")

    inverses = np.zeros_like(h)
    active = np.nonzero(active_mask)[0]
    if use_cordic:
        decomposer = CordicQrDecomposer(iterations=cordic_iterations)
        for k in active:
            q, r, _ = decomposer.decompose(h[k])
            inverses[k] = invert_upper_triangular(r) @ hermitian(q)
    elif active.size:
        # Every active subcarrier in one stacked QR and one stacked R^-1,
        # like the paper's per-subcarrier arrays running side by side.
        q, r, _ = qr_decompose_givens(h[active])
        inverses[active] = invert_upper_triangular(r) @ hermitian(q)
    return inverses


@dataclass
class ChannelEstimate:
    """Channel estimation result.

    Attributes
    ----------
    matrices:
        Estimated channel matrices per subcarrier, ``(fft_size, n_rx, n_tx)``.
    inverses:
        Zero-forcing equalisation matrices per subcarrier (``H^-1``), same
        shape; zero on inactive subcarriers.
    active_mask:
        Boolean mask of the subcarriers that were estimated.
    """

    matrices: ComplexArray
    inverses: ComplexArray
    active_mask: npt.NDArray[np.bool_]

    @property
    def fft_size(self) -> int:
        """Transform length the estimate covers."""
        return self.matrices.shape[0]

    @property
    def n_rx(self) -> int:
        """Number of receive antennas."""
        return self.matrices.shape[1]

    @property
    def n_tx(self) -> int:
        """Number of transmit antennas."""
        return self.matrices.shape[2]

    def estimation_error(self, true_channel: np.ndarray) -> float:
        """RMS relative error of the estimate versus a ground-truth channel."""
        truth = np.asarray(true_channel, dtype=np.complex128)
        if truth.shape != self.matrices.shape:
            raise ValueError("true channel must match the estimate's shape")
        active = self.active_mask
        diff = self.matrices[active] - truth[active]
        denom = np.linalg.norm(truth[active])
        if denom == 0:
            return float(np.linalg.norm(diff))
        return float(np.linalg.norm(diff) / denom)


class ChannelEstimator:
    """LTS-based channel estimator with QRD inversion.

    Parameters
    ----------
    reference_lts:
        Known frequency-domain LTS values per subcarrier.
    use_cordic:
        Route the QR decomposition through CORDIC arithmetic (slower but
        hardware-faithful word-length behaviour).
    cordic_iterations:
        CORDIC micro-rotation count when ``use_cordic`` is set.
    """

    def __init__(
        self,
        reference_lts: np.ndarray,
        use_cordic: bool = False,
        cordic_iterations: int = 16,
    ) -> None:
        self.reference_lts = np.asarray(reference_lts, dtype=np.complex128).ravel()
        if self.reference_lts.size == 0:
            raise ValueError("reference_lts must not be empty")
        self.use_cordic = use_cordic
        self.cordic_iterations = cordic_iterations
        self.active_mask = np.abs(self.reference_lts) > 0

    def estimate(self, received_lts: np.ndarray) -> ChannelEstimate:
        """Estimate and invert the channel from staggered LTS observations."""
        matrices = estimate_channel_from_lts(
            received_lts, self.reference_lts, self.active_mask
        )
        inverses = invert_channel_matrices(
            matrices,
            self.active_mask,
            use_cordic=self.use_cordic,
            cordic_iterations=self.cordic_iterations,
        )
        return ChannelEstimate(
            matrices=matrices, inverses=inverses, active_mask=self.active_mask.copy()
        )
