"""MIMO fading channel models.

Two models are provided:

* :class:`FlatRayleighChannel` — a single complex 4x4 (or NxM) matrix applied
  to every sample; the per-subcarrier channel matrices seen by the receiver
  are then all equal, which makes it the easiest model for validating the
  channel-estimation/QRD/inversion pipeline.
* :class:`FrequencySelectiveChannel` — independent Rayleigh taps per
  transmit/receive antenna pair with an exponential power-delay profile,
  which produces genuinely different channel matrices per subcarrier (the
  situation the per-subcarrier estimator in the paper is built for).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import numpy.typing as npt

from repro.types import ComplexArray, FloatArray
from repro.dsp.fft import get_plan
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, make_rng


#: Taps per transmit/receive antenna pair of a drawn
#: :class:`FrequencySelectiveChannel`.
N_TAPS = 4

#: Decay constant, in taps, of the exponential power-delay profile.
TAP_DECAY = 2.0


def rayleigh_matrix(n_rx: int, n_tx: int, rng: SeedLike) -> np.ndarray:
    """Draw an ``n_rx x n_tx`` i.i.d. Rayleigh (complex Gaussian) channel matrix.

    The entries have unit average power, so the average received power per
    antenna equals the transmitted power per antenna times ``n_tx``.
    """
    if n_rx <= 0 or n_tx <= 0:
        raise ConfigurationError("antenna counts must be positive")
    generator = make_rng(rng)
    h = generator.normal(size=(n_rx, n_tx)) + 1j * generator.normal(size=(n_rx, n_tx))
    h /= np.sqrt(2.0)
    return h


def exponential_power_delay_profile() -> FloatArray:
    """Powers of the :data:`N_TAPS` taps, decaying by ``e`` every
    :data:`TAP_DECAY` taps, normalised to sum to one."""
    powers = np.exp(-np.arange(N_TAPS) / TAP_DECAY)
    return powers / powers.sum()


class FlatRayleighChannel:
    """Frequency-flat Rayleigh MIMO channel.

    Applies a single channel matrix ``H`` to the per-antenna sample streams:
    ``y = H @ x`` sample by sample.  ``H`` is the given ``matrix``, or else
    drawn from ``rng``, which is then required.
    """

    def __init__(
        self,
        n_rx: int = 4,
        n_tx: int = 4,
        rng: Optional[SeedLike] = None,
        matrix: Optional[np.ndarray] = None,
    ) -> None:
        self.n_rx = n_rx
        self.n_tx = n_tx
        if matrix is not None:
            h = np.asarray(matrix, dtype=np.complex128)
            if h.shape != (n_rx, n_tx):
                raise ConfigurationError(f"matrix must have shape ({n_rx}, {n_tx})")
            self.matrix = h
        else:
            self.matrix = rayleigh_matrix(n_rx, n_tx, rng)

    def apply(self, tx_samples: npt.ArrayLike) -> ComplexArray:
        """Apply the channel to ``tx_samples`` of shape ``(n_tx, n_samples)``."""
        x = np.asarray(tx_samples, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_tx:
            raise ConfigurationError(f"expected shape ({self.n_tx}, n_samples), got {x.shape}")
        return self.matrix @ x

    def frequency_response(self, fft_size: int) -> ComplexArray:
        """Channel matrix per subcarrier, shape ``(fft_size, n_rx, n_tx)``."""
        return np.broadcast_to(
            self.matrix, (fft_size, self.n_rx, self.n_tx)
        ).copy()


class FrequencySelectiveChannel:
    """Frequency-selective Rayleigh MIMO channel (tapped delay line).

    Each transmit/receive antenna pair has :data:`N_TAPS` independent
    complex Gaussian taps drawn from the exponential power-delay profile
    (:func:`exponential_power_delay_profile`), or the given ``taps``, an
    ``(n_rx, n_tx, n_taps)`` array of any tap count; without ``taps``,
    ``rng`` is required.  The taps are fixed at construction (block
    fading), matching the paper's assumption that the channel is static
    across one burst so a single preamble-based estimate serves the whole
    burst.
    """

    def __init__(
        self,
        n_rx: int = 4,
        n_tx: int = 4,
        rng: Optional[SeedLike] = None,
        taps: Optional[np.ndarray] = None,
    ) -> None:
        self.n_rx = n_rx
        self.n_tx = n_tx
        if taps is not None:
            t = np.asarray(taps, dtype=np.complex128)
            if t.ndim != 3 or t.shape[:2] != (n_rx, n_tx) or t.shape[2] == 0:
                raise ConfigurationError(f"taps must have shape ({n_rx}, {n_tx}, n_taps)")
            self.taps = t
        else:
            generator = make_rng(rng)
            profile = exponential_power_delay_profile()
            gains = generator.normal(size=(n_rx, n_tx, N_TAPS)) + 1j * generator.normal(
                size=(n_rx, n_tx, N_TAPS)
            )
            gains /= np.sqrt(2.0)
            self.taps = gains * np.sqrt(profile)[None, None, :]
        self.n_taps = self.taps.shape[2]

    def apply(self, tx_samples: npt.ArrayLike) -> ComplexArray:
        """Convolve ``tx_samples`` of shape ``(n_tx, n_samples)`` with the taps."""
        x = np.asarray(tx_samples, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_tx:
            raise ConfigurationError(f"expected shape ({self.n_tx}, n_samples), got {x.shape}")
        n_samples = x.shape[1]
        y = np.zeros((self.n_rx, n_samples), dtype=np.complex128)
        for rx in range(self.n_rx):
            for tx in range(self.n_tx):
                full = np.convolve(x[tx], self.taps[rx, tx])
                y[rx] += full[:n_samples]
        return y

    def frequency_response(self, fft_size: int) -> ComplexArray:
        """Exact channel matrix per subcarrier, shape ``(fft_size, n_rx, n_tx)``.

        Useful as the ground truth the receiver's estimate is compared with.
        Routed through the shared :class:`~repro.dsp.fft.FftPlan` tables —
        the same transform the burst datapaths run — so ``fft_size`` must be
        a power of two, like everywhere else in the chain.
        """
        if fft_size < self.n_taps:
            raise ConfigurationError("fft_size must be at least the number of taps")
        padded = np.zeros((self.n_rx, self.n_tx, fft_size), dtype=np.complex128)
        padded[:, :, : self.n_taps] = self.taps
        response = get_plan(fft_size).forward(padded)
        return np.transpose(response, (2, 0, 1))
