"""Burst-level simulation backbone shared by the runner and ``simulate_link``.

This module turns a :class:`~repro.sim.spec.SweepPoint` into actual link
simulations: it builds the :class:`~repro.core.config.TransceiverConfig` and
channel model a grid cell describes, runs batches of bursts with
deterministic per-batch seed streams, and aggregates BER/PER counts with
optional early stopping.  :func:`simulate_batch` is the unit of work the
:class:`~repro.sim.runner.SweepRunner` fans out over its worker pool — it is
a module-level function taking one picklable payload so it crosses process
boundaries untouched.

Seeding contract: every burst derives its RNG streams from
``SeedSequence([content_hash(point.seed_payload(spec)), burst_index])``, so
results are bit-identical whether batches run serially, in any order, or on
any number of workers — and identical for the same physical cell across
*different* grids, which is what lets the per-point result store share
records between overlapping sweeps.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.model import IdealChannel, MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.transceiver import MimoTransceiver
from repro.dsp.backend import default_backend
from repro.exceptions import DecodingError
from repro.sim.spec import CHANNEL_MODELS, ImpairmentSpec, SweepPoint, SweepSpec
from repro.utils.rng import SeedLike, make_rng

#: Entropy tag appended to ``base_seed`` for the shared fading realisation
#: used when ``fresh_fading_per_burst`` is off; keeps that stream disjoint
#: from every per-(point, batch) stream (which append the point index).
_FIXED_FADING_TAG = 0x0FAD


def build_config(point: SweepPoint, spec: SweepSpec) -> TransceiverConfig:
    """Transceiver configuration for one grid cell.

    The cell's front-end condition shapes the receiver: a CFO axis enables
    the preamble-based estimator/corrector, and the RX quantisation formats
    become the receiver's sample/multiplier word lengths.
    """
    impairment = point.impairment or ImpairmentSpec()
    return TransceiverConfig(
        n_antennas=point.n_streams,
        fft_size=spec.fft_size,
        modulation=point.modulation,
        code_rate=point.code_rate,
        soft_decision=spec.soft_decision,
        detector=point.detector,
        correct_cfo=impairment.cfo_normalized != 0.0,
        rx_sample_format=impairment.rx_format,
        rx_multiplier_format=impairment.rx_multiplier_format,
    )


def build_fading_model(channel: str, n_streams: int, rng: SeedLike):
    """Fading model instance by name (fresh realisation per call).

    The name-keyed core of :func:`build_fading`, shared with callers that
    have no :class:`SweepPoint` — the streaming scheduler builds per-frame
    realisations from a channel name and antenna count directly.
    """
    n = n_streams
    if channel == "ideal":
        return IdealChannel(n, n)
    if channel == "flat_rayleigh":
        return FlatRayleighChannel(n, n, rng=rng)
    if channel == "frequency_selective":
        return FrequencySelectiveChannel(n, n, rng=rng)
    raise ValueError(f"unknown channel model {channel!r}")


def build_fading(point: SweepPoint, rng: SeedLike):
    """Fading model instance for one grid cell (fresh realisation per call)."""
    return build_fading_model(point.channel, point.n_streams, rng)


def fixed_fading_seed(spec: SweepSpec, point: SweepPoint) -> np.random.SeedSequence:
    """Seed of the fading realisation shared across the whole sweep.

    Deliberately independent of the SNR, modulation, code rate and detector
    axes so a waterfall compares operating points over the *same* channel
    draw; only the antenna count and channel kind (which change the
    realisation's shape/statistics) participate.
    """
    return np.random.SeedSequence(
        [
            spec.base_seed,
            _FIXED_FADING_TAG,
            point.n_streams,
            CHANNEL_MODELS.index(point.channel),
        ]
    )


@lru_cache(maxsize=8)
def _transceiver_for(config: TransceiverConfig, backend_name: str) -> MimoTransceiver:
    """Reusable transceiver per (configuration, DSP backend).

    Building a :class:`MimoTransceiver` constructs the full trellis,
    constellation tables and preamble; reusing it across bursts and batches
    (the channel is swapped per burst instead) keeps the hot loop hot.  The
    backend name participates in the cache key so a process that switches
    ``REPRO_DSP_BACKEND`` mid-run can never be served a transceiver built
    for another backend's arithmetic.
    """
    n = config.n_antennas
    return MimoTransceiver(
        config=config,
        channel=MimoChannel(IdealChannel(n, n)),
        backend=backend_name,
    )


def simulate_point(
    transceiver: MimoTransceiver,
    n_info_bits: int,
    n_bursts: int,
    rng: SeedLike = None,
    known_timing: bool = False,
    target_errors: Optional[int] = None,
    channel_factory: Optional[Callable[[int], MimoChannel]] = None,
) -> Dict[str, object]:
    """Run up to ``n_bursts`` bursts and aggregate BER/PER statistics.

    This is the serial backbone behind
    :func:`repro.core.transceiver.simulate_link`: one RNG stream threaded
    through all bursts, reproducing the classic fixed-channel loop
    bit-for-bit when ``channel_factory`` and ``target_errors`` are left
    unset.  The sweep engine's :func:`simulate_batch` runs the same
    physics but differs deliberately in two ways: it seeds each burst
    independently (so batching never changes results) and it tolerates
    receiver give-ups, counting a :class:`~repro.exceptions.DecodingError`
    burst as a fully errored frame, whereas this function — like
    ``run_burst`` — lets the exception propagate.

    Parameters
    ----------
    transceiver:
        The transmit/receive chain; its current channel is used unless
        ``channel_factory`` overrides it per burst.
    channel_factory:
        Called with the burst index to produce that burst's channel
        (fresh-fading Monte-Carlo mode).
    target_errors:
        Stop simulating once this many bit errors have accumulated — the
        BER estimate's accuracy is governed by the error *count*, so
        error-rich points settle after a handful of bursts.
    """
    if n_bursts <= 0:
        raise ValueError("n_bursts must be positive")
    generator = make_rng(rng)
    bit_errors = 0
    total_bits = 0
    frame_errors = 0
    bursts_run = 0
    early_stopped = False
    for index in range(n_bursts):
        if channel_factory is not None:
            transceiver.set_channel(channel_factory(index))
        result = transceiver.run_burst(
            n_info_bits, rng=generator, known_timing=known_timing
        )
        bit_errors += result.bit_errors
        total_bits += result.total_bits
        frame_errors += int(result.frame_error)
        bursts_run += 1
        if target_errors is not None and bit_errors >= target_errors:
            early_stopped = bursts_run < n_bursts
            break
    return {
        "bit_error_rate": bit_errors / total_bits if total_bits else 0.0,
        "packet_error_rate": frame_errors / bursts_run if bursts_run else 0.0,
        "total_bits": total_bits,
        "bit_errors": bit_errors,
        "frame_errors": frame_errors,
        "n_bursts": bursts_run,
        "early_stopped": early_stopped,
    }


def burst_seed(spec: SweepSpec, point: SweepPoint, burst_index: int) -> np.random.SeedSequence:
    """Deterministic seed of one (point, burst) cell of the seed tree.

    Seeding at burst granularity — not per batch or per worker — makes the
    simulated physics a pure function of the spec: re-batching the sweep or
    changing the pool size reruns the *same* bursts.

    Since engine version 4 the point's entropy comes from the content hash
    of its physics identity (:meth:`SweepPoint.seed_payload`) rather than
    its grid index, so the same physical cell draws the same bursts in
    *any* grid — the property the per-point result store's cross-sweep
    sharing rests on — and a bigger burst budget extends the stream instead
    of re-rolling it.
    """
    from repro.sim.cache import content_key

    entropy = int(content_key(point.seed_payload(spec)), 16)
    return np.random.SeedSequence([entropy, int(burst_index)])


def lost_frame_counts(n_info_bits: int, n_streams: int) -> Dict[str, int]:
    """Per-burst counts for a frame the receiver could not decode at all.

    The shared loss-accounting convention: a sync miss, a lock outside the
    buffer or a rank-deficient estimate loses *every* payload bit of the
    burst.  Both the sweep engine's :func:`simulate_batch` and the
    streaming pipeline count lost frames this way, so PER/loss-rate numbers
    are comparable across the two workloads.
    """
    lost_bits = n_info_bits * n_streams
    return {
        "bit_errors": lost_bits,
        "total_bits": lost_bits,
        "frame_error": 1,
        "decode_failure": 1,
    }


#: Entropy tag for streaming per-(user, frame) seeds; disjoint from the
#: sweep's per-(point, burst) tree and the fixed-fading stream.
_STREAM_TAG = 0x57EA


def stream_frame_seed(
    base_seed: int, user: int, frame_index: int
) -> np.random.SeedSequence:
    """Deterministic seed of one (user, frame) cell of the streaming tree.

    The streaming counterpart of :func:`burst_seed`: payload, fading and
    noise generators for every user's every frame derive from this, so a
    multi-user run is bit-reproducible for any scheduling order and never
    collides with a sweep using the same base seed.
    """
    return np.random.SeedSequence([base_seed, _STREAM_TAG, user, frame_index])


def simulate_batch(task: dict) -> Dict[str, object]:
    """Simulate one batch of bursts for one grid point (pool work unit).

    ``task`` is a plain-JSON payload::

        {"spec": SweepSpec.to_dict(), "point": SweepPoint.to_dict(),
         "start_burst": int, "n_bursts": int, "batch_index": int}

    Each burst in ``[start_burst, start_burst + n_bursts)`` derives payload,
    fading and noise generators from its own :func:`burst_seed`, and the
    batch reports *per-burst* counts so the runner can fold the global
    burst sequence and apply ``target_errors`` at burst granularity — the
    reported sweep statistics are a pure function of the spec, independent
    of batching and pool size.

    The batch also applies ``target_errors`` to its own cumulative error
    count as a shortcut: the global cumulative count at any burst is at
    least the batch-local one, so every burst skipped here would have been
    discarded by the runner's burst-level fold anyway.
    """
    spec = SweepSpec.from_dict(task["spec"])
    point = SweepPoint.from_dict(task["point"])
    start_burst = int(task["start_burst"])
    n_bursts = int(task["n_bursts"])
    batch_start = time.perf_counter()

    transceiver = _transceiver_for(build_config(point, spec), default_backend().name)

    fixed_fading = None
    if not spec.fresh_fading_per_burst:
        fixed_fading = build_fading(
            point, np.random.default_rng(fixed_fading_seed(spec, point))
        )

    impairment = point.impairment or ImpairmentSpec()
    bursts = []
    local_errors = 0
    for burst_index in range(start_burst, start_burst + n_bursts):
        payload_seed, fading_seed, noise_seed = burst_seed(
            spec, point, burst_index
        ).spawn(3)
        fading = (
            fixed_fading
            if fixed_fading is not None
            else build_fading(point, np.random.default_rng(fading_seed))
        )
        transceiver.set_channel(
            MimoChannel(
                fading=fading,
                snr_db=point.snr_db,
                cfo_normalized=impairment.cfo_normalized,
                sample_delay=impairment.sample_delay,
                iq_amplitude_db=impairment.iq_amplitude_db,
                iq_phase_deg=impairment.iq_phase_deg,
                tx_quantization=impairment.tx_format,
                rng=np.random.default_rng(noise_seed),
            )
        )
        try:
            result = transceiver.run_burst(
                spec.n_info_bits,
                rng=np.random.default_rng(payload_seed),
                known_timing=spec.known_timing,
            )
            burst = {
                "bit_errors": result.bit_errors,
                "total_bits": result.total_bits,
                "frame_error": int(result.frame_error),
                "decode_failure": 0,
            }
        except DecodingError:
            # Deep in the noise the receiver gives up: the time synchroniser
            # misses the burst entirely, locks onto a window that starts
            # before the first received sample, or a rank-deficient estimate
            # stops the channel inversion (ChannelEstimationError is a
            # DecodingError) or leaves the MMSE weights unsolvable.  A sweep
            # over extreme operating points must survive all of those: count
            # the burst as a fully errored frame (every payload bit lost) and
            # move on.
            burst = lost_frame_counts(spec.n_info_bits, point.n_streams)
        bursts.append(burst)
        local_errors += burst["bit_errors"]
        if spec.target_errors is not None and local_errors >= spec.target_errors:
            break
    return {
        "batch_index": int(task["batch_index"]),
        "bursts": bursts,
        "elapsed_s": time.perf_counter() - batch_start,
    }
