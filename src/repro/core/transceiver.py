"""End-to-end link simulation: transmitter -> channel -> receiver.

:class:`MimoTransceiver` wires a :class:`~repro.core.transmitter.MimoTransmitter`
and a :class:`~repro.core.receiver.MimoReceiver` around a
:class:`~repro.channel.model.MimoChannel`; :func:`simulate_link` runs a
complete burst and reports BER/PER, which is what the link-level benchmarks
and the BER-vs-SNR sweeps are built on.

For whole grids (SNR x modulation x channel x detector) use the batched
engine in :mod:`repro.sim` — worker pools, early stopping and result
caching; see ``docs/simulation.md``.  ``simulate_link`` delegates to that
engine's serial backbone (:func:`repro.sim.engine.simulate_point`), which
runs the same burst physics but keeps the classic strict semantics: one
RNG stream across bursts and decode failures raised, not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from repro.channel.awgn import noise_variance_for_snr
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.frame import ReceiveResult, TransmitBurst
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
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


class MimoTransceiver:
    """Transmitter + channel + receiver wired together.

    ``backend`` names the :class:`~repro.dsp.backend.DspBackend` carrying
    the transmitter's IFFT arithmetic.
    """

    def __init__(
        self,
        config: Optional[TransceiverConfig] = None,
        channel: Optional[MimoChannel] = None,
        sync_mode: str = "peak",
        backend=None,
    ) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self.transmitter = MimoTransmitter(self.config, backend=backend)
        self.receiver = MimoReceiver(self.config, sync_mode=sync_mode)
        self.channel = channel if channel is not None else MimoChannel()
        if self.channel.n_tx != self.config.n_antennas:
            raise ValueError("channel antenna count does not match the configuration")

    def set_channel(self, channel: MimoChannel) -> None:
        """Swap the channel model between bursts.

        The sweep engine reuses one transceiver (trellis, constellation and
        preamble tables are expensive to rebuild) while giving every burst
        a fresh fading realisation through this hook.
        """
        if channel.n_tx != self.config.n_antennas:
            raise ValueError("channel antenna count does not match the configuration")
        self.channel = channel

    def transmit_burst(
        self,
        n_info_bits: int,
        rng: SeedLike = None,
        known_timing: bool = False,
    ) -> AirBurst:
        """Transmit one burst of random data and propagate it to the receiver.

        The transmit half of :meth:`run_burst`, shared with callers that
        run the receiver themselves (the sweep engine decodes many bursts
        in one trellis pass).  Parameters are those of :meth:`run_burst`.
        """
        generator = make_rng(rng)
        burst = self.transmitter.transmit_random(n_info_bits, rng=generator)
        output = self.channel.transmit(burst.samples)

        lts_start = None
        if known_timing:
            lts_start = burst.layout.sts_length + self.channel.sample_delay

        # The channel reports the exact variance it injected (calibrated
        # against the occupied-sample signal power); fall back to measuring
        # the noisy output only for duck-typed channels that do not.
        noise_variance = getattr(output, "noise_variance", None)
        if not noise_variance:
            if self.channel.snr_db is not None:
                signal_power = float(np.mean(np.abs(output.samples) ** 2))
                noise_variance = noise_variance_for_snr(
                    self.channel.snr_db, max(signal_power, 1e-12)
                )
            else:
                noise_variance = 1.0
        return AirBurst(burst, output.samples, lts_start, noise_variance)

    def run_burst(
        self,
        n_info_bits: int,
        rng: SeedLike = None,
        known_timing: bool = False,
    ) -> LinkSimulationResult:
        """Transmit, propagate and decode one burst of random data.

        Parameters
        ----------
        n_info_bits:
            Information bits per spatial stream.
        rng:
            Seed or generator for the payload bits (channel noise uses the
            channel's own generator).
        known_timing:
            Bypass the time synchroniser and hand the receiver the true LTS
            position (isolates detection/decoding from sync errors).
        """
        air = self.transmit_burst(n_info_bits, rng=rng, known_timing=known_timing)
        burst = air.burst
        result = self.receiver.receive(
            air.samples,
            n_info_bits=n_info_bits,
            lts_start=air.lts_start,
            noise_variance=air.noise_variance,
            reference_bits=burst.info_bits,
        )

        stream_bers = [
            stream.bit_error_rate if stream.bit_error_rate is not None else 0.0
            for stream in result.streams
        ]
        bit_errors = result.total_bit_errors(burst.info_bits)
        total_bits = burst.payload_bits
        return LinkSimulationResult(
            bit_errors=bit_errors,
            total_bits=total_bits,
            bit_error_rate=bit_errors / total_bits,
            stream_bit_error_rates=stream_bers,
            burst=burst,
            receive_result=result,
        )


def simulate_link(
    config: Optional[TransceiverConfig] = None,
    channel: Optional[MimoChannel] = None,
    n_info_bits: int = 512,
    n_bursts: int = 1,
    rng: SeedLike = None,
    known_timing: bool = False,
    target_errors: Optional[int] = None,
) -> dict:
    """Run up to ``n_bursts`` bursts and aggregate BER/PER statistics.

    A thin wrapper over the batched engine's serial backbone
    (:func:`repro.sim.engine.simulate_point`) that keeps the classic
    one-point API: a fixed channel, one RNG stream threaded through all
    bursts.  For grids over SNR/modulation/channel/detector — with worker
    pools, early stopping and caching — use :class:`repro.sim.SweepRunner`.

    Returns a dictionary with ``bit_error_rate``, ``packet_error_rate``,
    ``total_bits``, ``bit_errors``, ``frame_errors``, ``n_bursts`` (bursts
    actually run) and ``early_stopped`` keys, which the benchmarks print as
    the rows of their tables.

    Parameters
    ----------
    target_errors:
        When set, stop simulating once this many bit errors have been
        observed (the estimate's accuracy depends on the error count, not
        the burst count); ``None`` always runs the full ``n_bursts``.
    """
    from repro.sim.engine import simulate_point

    transceiver = MimoTransceiver(config=config, channel=channel)
    return simulate_point(
        transceiver,
        n_info_bits=n_info_bits,
        n_bursts=n_bursts,
        rng=rng,
        known_timing=known_timing,
        target_errors=target_errors,
    )
