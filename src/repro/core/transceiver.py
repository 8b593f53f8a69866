"""The on-air step of every link: transmitter -> channel.

:func:`transmit_bursts` puts a round of bursts of random data on air: one
stacked :meth:`~repro.core.transmitter.MimoTransmitter.transmit` pass for
the whole round, then each burst through its own
:class:`~repro.channel.model.MimoChannel`.  It returns the received
samples with what the receiver may know about them (:class:`AirBurst`).
A link then decodes them with
:meth:`~repro.core.receiver.MimoReceiver.receive_stack` and scores the
outcome with :meth:`~repro.core.frame.BurstOutcome.score`.

:func:`air_round` is its seeded form, the one air path of the sweep engine
(:mod:`repro.sim`) and the streaming scheduler (:mod:`repro.stream`), and
:func:`impaired_config` shapes the receiver an impairment needs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.channel.impairments import ImpairmentSpec
from repro.channel.model import MimoChannel, build_fading_model
from repro.core.config import TransceiverConfig
from repro.core.frame import TransmitBurst
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, make_rng


class AirBurst(NamedTuple):
    """One transmitted burst as it reaches the receive antennas.

    ``lts_start`` is the true LTS position when the caller asked for known
    timing (``None`` lets the receiver synchronise), and
    ``noise_variance`` is what the receiver scales soft decisions with.
    """

    burst: TransmitBurst
    samples: np.ndarray
    lts_start: Optional[int]
    noise_variance: float


def transmit_bursts(
    transmitter: MimoTransmitter,
    channels: Sequence[MimoChannel],
    n_info_bits: int,
    rngs: Sequence[SeedLike],
    known_timing: bool = False,
) -> List[AirBurst]:
    """Transmit one round of bursts of random data and propagate each to
    the receiver: one :class:`AirBurst` per channel, in order.

    The transmit half of every link: the sweep engine and the streaming
    scheduler reach it through :func:`air_round`, which builds a fresh
    seeded channel per burst; a single burst is a round of one.

    Parameters
    ----------
    channels:
        One channel per burst (each with its own noise generator).
    n_info_bits:
        Information bits per spatial stream, the same for every burst.
    rngs:
        One seed or generator per burst for its payload bits, drawn by
        :meth:`~repro.core.transmitter.MimoTransmitter.random_payload`.
    known_timing:
        Report the true LTS position in :attr:`AirBurst.lts_start`, so the
        receiver can bypass the time synchroniser (isolates
        detection/decoding from sync errors).
    """
    if not channels or len(channels) != len(rngs):
        raise ConfigurationError(
            f"a round needs at least one channel and one payload generator "
            f"per channel, got {len(rngs)} for {len(channels)}"
        )
    payload = np.stack(
        [transmitter.random_payload(n_info_bits, make_rng(rng)) for rng in rngs]
    )
    sent = []
    for burst, channel in zip(transmitter.transmit(payload), channels):
        output = channel.transmit(burst.samples)
        lts_start = None
        if known_timing:
            lts_start = burst.layout.sts_length + channel.impairment.sample_delay
        # The channel reports the exact variance it injected (calibrated
        # against the occupied-sample signal power); a channel that injects
        # none leaves the receiver at its default of 1.0.
        noise_variance = output.noise_variance or 1.0
        sent.append(AirBurst(burst, output.samples, lts_start, noise_variance))
    return sent


def impaired_config(base: TransceiverConfig, impairment: ImpairmentSpec) -> TransceiverConfig:
    """``base`` with an impairment's receiver wiring overlaid.

    A CFO on air enables the preamble-based estimator/corrector, and the RX
    quantisation formats become the receiver's sample/multiplier word
    lengths; whatever ``base`` already enables stays enabled.  The sweep
    engine and the streaming scheduler both shape their receivers here.
    """
    return replace(
        base,
        correct_cfo=base.correct_cfo or impairment.cfo_normalized != 0.0,
        rx_sample_format=impairment.rx_format or base.rx_sample_format,
        rx_multiplier_format=impairment.rx_multiplier_format or base.rx_multiplier_format,
    )


class AirCell(NamedTuple):
    """One seeded burst of an :func:`air_round`: its seed (spawning
    advances a ``SeedSequence``, so a seed goes on air once), the channel
    it crosses, and ``fading_seed`` when the caller keeps one fading
    realisation fixed (the same seed always builds the same one)."""

    seed: np.random.SeedSequence
    channel: str
    snr_db: Optional[float]
    impairment: ImpairmentSpec
    fading_seed: Optional[np.random.SeedSequence] = None


def air_round(
    transmitter: MimoTransmitter,
    cells: Sequence[AirCell],
    n_info_bits: int,
    known_timing: bool = False,
) -> List[AirBurst]:
    """Put a round of seeded bursts on air: the sweep's and the stream's
    one TX path, one :class:`AirBurst` per cell.

    Each cell's seed spawns its payload, fading and noise generators, in
    that order; a ``fading_seed`` replaces the fading generator's seed.
    Its burst crosses a fresh :class:`~repro.channel.model.MimoChannel`
    under its impairment.  Every burst goes through one stacked transmit
    pass, :func:`transmit_bursts`; the channels stay per burst, so a round
    may mix channel kinds and impairments.
    """
    payloads, channels = [], []
    for cell in cells:
        payload_seed, fading_seed, noise_seed = cell.seed.spawn(3)
        if cell.fading_seed is not None:
            fading_seed = cell.fading_seed
        # The seed, not a generator: only a fading model that draws builds one.
        fading = build_fading_model(cell.channel, transmitter.config.n_antennas, fading_seed)
        channels.append(
            MimoChannel(
                fading, cell.snr_db, cell.impairment, np.random.default_rng(noise_seed)
            )
        )
        payloads.append(np.random.default_rng(payload_seed))
    return transmit_bursts(
        transmitter, channels, n_info_bits, payloads, known_timing=known_timing
    )
