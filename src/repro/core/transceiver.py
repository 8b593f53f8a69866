"""The on-air step of every link: transmitter -> channel.

:func:`transmit_burst` transmits a burst of random data through a
:class:`~repro.channel.model.MimoChannel` and returns the received samples
with what the receiver may know about them (:class:`AirBurst`).  A link
then decodes them with
:meth:`~repro.core.receiver.MimoReceiver.receive_stack` and scores the
outcome with :meth:`~repro.core.frame.BurstOutcome.score`.

BER/PER over many bursts is the batched engine's job: the sweep engine in
:mod:`repro.sim` (worker pools, early stopping, result caching; see
``docs/simulation.md``) and the streaming scheduler put their bursts on
air through :func:`transmit_burst` via :func:`repro.sim.engine.air_burst`,
which seeds a fresh channel per burst.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.channel.model import MimoChannel
from repro.core.frame import TransmitBurst
from repro.core.transmitter import MimoTransmitter
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


def transmit_burst(
    transmitter: MimoTransmitter,
    channel: MimoChannel,
    n_info_bits: int,
    rng: SeedLike = None,
    known_timing: bool = False,
) -> AirBurst:
    """Transmit one burst of random data and propagate it to the receiver.

    The transmit half of every link: the sweep engine and the streaming
    scheduler reach it through :func:`repro.sim.engine.air_burst`, which
    builds a fresh seeded channel per burst.

    Parameters
    ----------
    n_info_bits:
        Information bits per spatial stream.
    rng:
        Seed or generator for the payload bits (channel noise uses the
        channel's own generator).
    known_timing:
        Report the true LTS position in :attr:`AirBurst.lts_start`, so the
        receiver can bypass the time synchroniser (isolates
        detection/decoding from sync errors).
    """
    burst = transmitter.transmit_random(n_info_bits, rng=make_rng(rng))
    output = channel.transmit(burst.samples)

    lts_start = None
    if known_timing:
        lts_start = burst.layout.sts_length + channel.sample_delay

    # The channel reports the exact variance it injected (calibrated
    # against the occupied-sample signal power); a channel that injects
    # none leaves the receiver at its default of 1.0.
    noise_variance = output.noise_variance or 1.0
    return AirBurst(burst, output.samples, lts_start, noise_variance)
