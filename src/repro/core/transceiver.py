"""The on-air step of every link: transmitter -> channel.

:func:`transmit_bursts` puts a round of bursts of random data on air: one
stacked :meth:`~repro.core.transmitter.MimoTransmitter.transmit` pass for
the whole round, then each burst through its own
:class:`~repro.channel.model.MimoChannel`.  It returns the received
samples with what the receiver may know about them (:class:`AirBurst`).
A link then decodes them with
:meth:`~repro.core.receiver.MimoReceiver.receive_stack` and scores the
outcome with :meth:`~repro.core.frame.BurstOutcome.score`.

BER/PER over many bursts is the batched engine's job: the sweep engine in
:mod:`repro.sim` (worker pools, early stopping, result caching; see
``docs/simulation.md``) and the streaming scheduler put their rounds on
air through :func:`transmit_bursts` via :func:`repro.sim.engine.air_round`,
which seeds a fresh channel per burst.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.channel.model import MimoChannel
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
    scheduler reach it through :func:`repro.sim.engine.air_round`, which
    builds a fresh seeded channel per burst; a single burst is a round of
    one.

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
            lts_start = burst.layout.sts_length + channel.sample_delay
        # The channel reports the exact variance it injected (calibrated
        # against the occupied-sample signal power); a channel that injects
        # none leaves the receiver at its default of 1.0.
        noise_variance = output.noise_variance or 1.0
        sent.append(AirBurst(burst, output.samples, lts_start, noise_variance))
    return sent
