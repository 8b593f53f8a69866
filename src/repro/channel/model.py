"""Composable end-to-end MIMO channel model.

:class:`MimoChannel` chains transmit-side DAC quantisation, a fading model
(ideal / flat Rayleigh / frequency selective), front-end impairments (CFO,
sample delay), AWGN and the receive-mixer IQ imbalance into a single object
with one :meth:`MimoChannel.transmit` call; the impairments are the air
half of one :class:`~repro.channel.impairments.ImpairmentSpec`.  The
fading models expose their ground-truth per-subcarrier channel matrices
(``frequency_response``) so experiments can compare the receiver's
estimates against the real channel.  The receive-side ADC quantisation is
the receiver's first stage (``TransceiverConfig.rx_sample_format``).

Stage order is physical: the IQ imbalance models the *receive* mixer, so it
distorts signal and antenna noise alike — it runs after the AWGN stage.
Noise is calibrated against the signal power over *occupied* sample
instants (see :func:`repro.channel.awgn.occupied_power`), so the delivered
SNR does not depend on how much zero padding a timing delay prepends or how
long the idle tail runs; the exact variance used is reported on the output.

Every stage runs on the whole burst at once; the CFO, noise and IQ stages
are the public helpers of :mod:`repro.channel.awgn` and
:mod:`repro.channel.impairments`, so the pipeline needs no reference twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.awgn import awgn_noise, noise_variance_for_snr, occupied_power
from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.impairments import (
    ImpairmentSpec,
    apply_carrier_frequency_offset,
    apply_iq_imbalance,
)
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, make_rng


class IdealChannel:
    """Identity channel: each of ``n_antennas`` receive antennas hears
    exactly its own transmit antenna."""

    def __init__(self, n_antennas: int = 4) -> None:
        self.n_rx = self.n_tx = n_antennas
        self.matrix = np.eye(n_antennas, dtype=np.complex128)

    def apply(self, tx_samples: np.ndarray) -> np.ndarray:
        """Pass the transmit streams straight through."""
        x = np.asarray(tx_samples, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_tx:
            raise ConfigurationError(
                f"expected shape ({self.n_tx}, n_samples), got {x.shape}"
            )
        return x.copy()

    def frequency_response(self, fft_size: int) -> np.ndarray:
        """Identity channel matrix on every subcarrier."""
        return np.broadcast_to(
            np.eye(self.n_rx, dtype=np.complex128), (fft_size, self.n_rx, self.n_tx)
        ).copy()


@dataclass
class ChannelOutput:
    """Result of pushing a burst through the channel.

    Attributes
    ----------
    samples:
        Received samples per antenna, shape ``(n_rx, n_samples)``.
    noise_variance:
        The complex noise variance actually injected — calibrated against
        the occupied-sample signal power, so receivers (MMSE weights, soft
        LLR scaling) can use the true value instead of re-measuring it from
        the noisy output.  ``None`` for a noiseless run.
    """

    samples: np.ndarray
    noise_variance: Optional[float] = None


#: The ideal front end of a channel without an impairment.
_IDEAL_FRONT_END = ImpairmentSpec()

#: Fading models :func:`build_fading_model` builds by name.
CHANNEL_MODELS = ("ideal", "flat_rayleigh", "frequency_selective")


def build_fading_model(channel: str, n_streams: int, rng: SeedLike):
    """Fading model instance by name: a realisation drawn from ``rng``,
    so the same seed always builds the same one."""
    n = n_streams
    if channel == "ideal":
        return IdealChannel(n)
    if channel == "flat_rayleigh":
        return FlatRayleighChannel(n, n, rng=rng)
    if channel == "frequency_selective":
        return FrequencySelectiveChannel(n, n, rng=rng)
    raise ConfigurationError(f"unknown channel model {channel!r}")


class MimoChannel:
    """Fading + impairments + noise applied to a multi-antenna burst.

    Parameters
    ----------
    fading:
        One of :class:`IdealChannel`, :class:`FlatRayleighChannel`,
        :class:`FrequencySelectiveChannel` or any object with an ``apply``
        method and ``n_rx``/``n_tx`` attributes.
    snr_db:
        SNR of the added AWGN; ``None`` disables noise.
    impairment:
        The front-end condition, an
        :class:`~repro.channel.impairments.ImpairmentSpec` (``None`` is the
        ideal front end), whose air half the channel applies: TX
        quantisation, timing delay, CFO and IQ imbalance.
    rng:
        Seed or generator used for the noise (fading randomness is owned by
        the fading object itself).

    Raises :class:`~repro.exceptions.ConfigurationError` on an
    ``impairment`` that is neither an ``ImpairmentSpec`` nor ``None``
    (the spec checks its own fields), an ``snr_db`` that is neither
    ``None`` nor finite, and (in :meth:`transmit`) a burst that is not
    ``(n_tx, n_samples)``.
    """

    def __init__(
        self,
        fading=None,
        snr_db: Optional[float] = None,
        impairment: Optional[ImpairmentSpec] = None,
        rng: SeedLike = None,
    ) -> None:
        if not isinstance(impairment, (ImpairmentSpec, type(None))):
            raise ConfigurationError(
                f"impairment must be an ImpairmentSpec or None, got {impairment!r}"
            )
        if snr_db is not None and not np.isfinite(snr_db):
            raise ConfigurationError(f"snr_db must be finite or None, got {snr_db}")
        self.fading = fading if fading is not None else IdealChannel()
        self.snr_db = snr_db
        self.impairment = impairment or _IDEAL_FRONT_END
        self.rng = make_rng(rng)

    @property
    def n_rx(self) -> int:
        """Number of receive antennas."""
        return self.fading.n_rx

    @property
    def n_tx(self) -> int:
        """Number of transmit antennas."""
        return self.fading.n_tx

    def transmit(self, tx_samples: np.ndarray) -> ChannelOutput:
        """Push a transmit burst, ``(n_tx, n_samples)``, through fading,
        impairments and noise."""
        x = np.asarray(tx_samples, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_tx:
            raise ConfigurationError(
                f"expected shape ({self.n_tx}, n_samples), got {x.shape}"
            )

        impairment = self.impairment
        if impairment.tx_format is not None:
            x = impairment.tx_format.quantize_complex(x)
        y = self.fading.apply(x)
        if impairment.sample_delay:
            # The receiver keeps listening while the burst arrives late:
            # the observation window grows by the delay and every
            # transmitted sample survives the shift.
            pad = np.zeros(y.shape[:-1] + (impairment.sample_delay,), dtype=np.complex128)
            y = np.concatenate([pad, y], axis=-1)
        if impairment.cfo_normalized:
            y = apply_carrier_frequency_offset(y, impairment.cfo_normalized)
        noise_variance = self._noise_variance_for(y)
        if noise_variance:
            y = y + awgn_noise(y.shape, noise_variance, self.rng)
        if impairment.iq_amplitude_db or impairment.iq_phase_deg:
            y = apply_iq_imbalance(y, impairment.iq_amplitude_db, impairment.iq_phase_deg)
        return ChannelOutput(samples=y, noise_variance=noise_variance)

    def _noise_variance_for(self, y: np.ndarray) -> Optional[float]:
        """Noise variance delivering ``snr_db`` over the occupied samples.

        Measured on the pre-noise signal, so zero padding (timing delay)
        and the idle burst tail cannot dilute the signal-power estimate —
        the delivered SNR is invariant to the ``sample_delay`` and
        burst-length axes.  Returns ``None`` for a noiseless channel and
        ``0.0`` when the window carries no signal at all.
        """
        if self.snr_db is None:
            return None
        power = occupied_power(y)
        if power == 0.0:
            return 0.0
        return noise_variance_for_snr(self.snr_db, power)
