"""End-to-end link simulation: transmitter -> channel -> receiver.

:func:`transmit_burst` is the one on-air step of every link: it transmits
a burst of random data through a
:class:`~repro.channel.model.MimoChannel` and returns the received samples
with what the receiver may know about them (:class:`AirBurst`).
:class:`MimoTransceiver` wires a :class:`~repro.core.transmitter.MimoTransmitter`
and a :class:`~repro.core.receiver.MimoReceiver` around one fixed channel;
its :meth:`~MimoTransceiver.run_burst` decodes a :func:`transmit_burst`
and scores it with :meth:`~repro.core.frame.ReceiveResult.total_bit_errors`,
and :func:`simulate_link` aggregates bursts into BER/PER, which is what
the link-level benchmarks are built on.

For whole grids (SNR x modulation x channel x detector) use the batched
engine in :mod:`repro.sim` — worker pools, early stopping and result
caching; see ``docs/simulation.md``.  The engine and the streaming
scheduler put their bursts on air through the same :func:`transmit_burst`
(via :func:`repro.sim.engine.air_burst`, which seeds a fresh channel per
burst), while ``simulate_link`` keeps the classic strict semantics: one
fixed channel, one RNG stream across bursts and decode failures raised,
not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.frame import ReceiveResult, TransmitBurst
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError
from repro.utils.bits import count_bit_errors
from repro.utils.rng import SeedLike, make_rng


@dataclass
class LinkSimulationResult:
    """Outcome of one simulated burst.

    Attributes
    ----------
    bit_errors:
        Total bit errors across all spatial streams.
    total_bits:
        Total information bits transmitted across all streams.
    bit_error_rate:
        ``bit_errors / total_bits``.
    stream_bit_error_rates:
        Per-stream BER.
    burst:
        The transmitted burst (for inspection).
    receive_result:
        The full receiver output (channel estimate, diagnostics, ...).
    """

    bit_errors: int
    total_bits: int
    bit_error_rate: float
    stream_bit_error_rates: List[float]
    burst: TransmitBurst
    receive_result: ReceiveResult

    @property
    def frame_error(self) -> bool:
        """True when at least one bit error occurred (burst-level PER flag)."""
        return self.bit_errors > 0


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

    The transmit half of every link: :meth:`MimoTransceiver.run_burst`
    receives the result itself, and the sweep engine and the streaming
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


class MimoTransceiver:
    """Transmitter + channel + receiver wired together."""

    def __init__(
        self,
        config: Optional[TransceiverConfig] = None,
        channel: Optional[MimoChannel] = None,
    ) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self.transmitter = MimoTransmitter(self.config)
        self.receiver = MimoReceiver(self.config)
        self.channel = channel if channel is not None else MimoChannel()
        if self.channel.n_tx != self.config.n_antennas:
            raise ConfigurationError(
                "channel antenna count does not match the configuration"
            )

    def run_burst(
        self,
        n_info_bits: int,
        rng: SeedLike = None,
        known_timing: bool = False,
    ) -> LinkSimulationResult:
        """Transmit, propagate and decode one burst of random data.

        Parameters are those of :func:`transmit_burst`; ``known_timing``
        hands the receiver the true LTS position.
        """
        air = transmit_burst(
            self.transmitter, self.channel, n_info_bits, rng=rng, known_timing=known_timing
        )
        burst = air.burst
        result = self.receiver.receive(
            air.samples,
            n_info_bits=n_info_bits,
            lts_start=air.lts_start,
            noise_variance=air.noise_variance,
        )
        bit_errors = result.total_bit_errors(burst.info_bits)
        total_bits = burst.payload_bits
        return LinkSimulationResult(
            bit_errors=bit_errors,
            total_bits=total_bits,
            bit_error_rate=bit_errors / total_bits,
            stream_bit_error_rates=[
                count_bit_errors(bits, decoded) / bits.size
                for bits, decoded in zip(burst.info_bits, result.decoded_bits)
            ],
            burst=burst,
            receive_result=result,
        )


def simulate_link(
    config: Optional[TransceiverConfig] = None,
    channel: Optional[MimoChannel] = None,
    n_info_bits: int = 512,
    n_bursts: int = 1,
    rng: SeedLike = None,
) -> dict:
    """Run ``n_bursts`` bursts and aggregate BER/PER statistics.

    The classic one-point loop: a fixed channel, one RNG stream threaded
    through all bursts, time synchronisation on every burst, and a
    :class:`~repro.exceptions.DecodingError` raised as in ``run_burst``.
    For grids over SNR/modulation/channel/detector — with worker pools,
    per-burst seeds, known timing, lost frames counted instead of raised,
    early stopping and caching — use :class:`repro.sim.SweepRunner`.

    Returns a dictionary with ``bit_error_rate``, ``packet_error_rate``,
    ``total_bits``, ``bit_errors``, ``frame_errors`` and ``n_bursts``
    keys, which the benchmarks print as the rows of their tables.
    """
    if n_bursts <= 0:
        raise ConfigurationError("n_bursts must be positive")
    transceiver = MimoTransceiver(config=config, channel=channel)
    generator = make_rng(rng)
    bit_errors = 0
    total_bits = 0
    frame_errors = 0
    for _ in range(n_bursts):
        result = transceiver.run_burst(n_info_bits, rng=generator)
        bit_errors += result.bit_errors
        total_bits += result.total_bits
        frame_errors += int(result.frame_error)
    return {
        "bit_error_rate": bit_errors / total_bits if total_bits else 0.0,
        "packet_error_rate": frame_errors / n_bursts,
        "total_bits": total_bits,
        "bit_errors": bit_errors,
        "frame_errors": frame_errors,
        "n_bursts": n_bursts,
    }
