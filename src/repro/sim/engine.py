"""Burst-level simulation backbone shared by the runner and ``simulate_link``.

This module turns a :class:`~repro.sim.spec.SweepPoint` into actual link
simulations: it builds the :class:`~repro.core.config.TransceiverConfig` and
channel model a grid cell describes, runs batches of bursts with
deterministic per-batch seed streams, and aggregates BER/PER counts with
optional early stopping.  :func:`simulate_batch` is the unit of work the
:class:`~repro.sim.runner.SweepRunner` fans out over its worker pool — one
batch of bursts for each of several points sharing a configuration, all
decoded in one trellis pass.  It is a module-level function taking one
picklable payload so it crosses process boundaries untouched.

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
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.model import IdealChannel, MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.frame import count_bit_errors
from repro.core.transceiver import MimoTransceiver
from repro.dsp.backend import default_backend
from repro.exceptions import ConfigurationError, DecodingError
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


#: Most code blocks one trellis pass decodes; a work unit with more blocks
#: is decoded in slices, so the ACS buffers stay bounded for any batch size.
DECODE_SLICE = 64


def simulate_batch(task: dict) -> List[Dict[str, object]]:
    """Simulate one work unit: a batch of bursts for each of several points.

    ``task`` is a plain-JSON payload::

        {"spec": SweepSpec.to_dict(),
         "items": [{"point": SweepPoint.to_dict(), "start_burst": int,
                    "n_bursts": int, "batch_index": int}, ...]}

    Every item's point must share one :func:`build_config`.  Each burst in
    an item's ``[start_burst, start_burst + n_bursts)`` derives payload,
    fading and noise generators from its own :func:`burst_seed` and runs
    through transmitter, channel and the receiver front end.  The unit
    advances its items in lockstep rounds: a round takes the next burst of
    every live item and Viterbi-decodes all their code blocks together,
    up to :data:`DECODE_SLICE` blocks per trellis pass.  Blocks are
    independent in the trellis, so each burst's bits are exactly what
    decoding it alone would give.  An item retires at the burst whose
    item-local cumulative bit errors reach ``target_errors``, and its
    later bursts are never simulated: the global cumulative count at any
    burst is at least the item-local one, so the runner's fold would
    discard them.

    Returns one report per item, in item order: ``{"batch_index",
    "bursts", "elapsed_s"}`` with *per-burst* counts, so the runner can
    fold the global burst sequence and apply ``target_errors`` at burst
    granularity — the reported sweep statistics are a pure function of the
    spec, independent of batching, grouping and pool size.  ``elapsed_s``
    splits the unit's wall time over its items by burst count.
    """
    spec = SweepSpec.from_dict(task["spec"])
    items = task["items"]
    points = [SweepPoint.from_dict(item["point"]) for item in items]
    unit_start = time.perf_counter()

    config = build_config(points[0], spec)
    if any(build_config(point, spec) != config for point in points[1:]):
        raise ConfigurationError("every item of a work unit must share one configuration")
    transceiver = _transceiver_for(config, default_backend().name)
    receiver = transceiver.receiver
    fixed_fadings = [
        None
        if spec.fresh_fading_per_burst
        else build_fading(point, np.random.default_rng(fixed_fading_seed(spec, point)))
        for point in points
    ]

    reports: List[Dict[str, object]] = [
        {"batch_index": int(item["batch_index"]), "bursts": []} for item in items
    ]
    errors = [0] * len(items)
    live = list(range(len(items)))
    for offset in range(max(int(item["n_bursts"]) for item in items)):
        # Per live item: the round's transmitted bits, or None when the
        # front end gave up on its burst.
        sent: Dict[int, Optional[np.ndarray]] = {}
        blocks: List[np.ndarray] = []
        for i in live:
            front = _front_end_burst(
                transceiver,
                spec,
                points[i],
                fixed_fadings[i],
                int(items[i]["start_burst"]) + offset,
            )
            sent[i] = None if front is None else front[0]
            if front is not None:
                blocks.append(front[1])
        decoded = _decode_sliced(receiver, blocks, spec.n_info_bits)

        row = 0
        for i, info_bits in sent.items():
            if info_bits is None:
                burst = lost_frame_counts(spec.n_info_bits, points[i].n_streams)
            else:
                n_rows = info_bits.shape[0]
                bit_errors = count_bit_errors(decoded[row : row + n_rows], info_bits)
                row += n_rows
                burst = {
                    "bit_errors": bit_errors,
                    "total_bits": int(info_bits.size),
                    "frame_error": int(bit_errors > 0),
                    "decode_failure": 0,
                }
            reports[i]["bursts"].append(burst)
            errors[i] += burst["bit_errors"]
        live = [
            i
            for i in live
            if offset + 1 < int(items[i]["n_bursts"])
            and (spec.target_errors is None or errors[i] < spec.target_errors)
        ]

    elapsed = time.perf_counter() - unit_start
    total_bursts = sum(len(report["bursts"]) for report in reports)
    for report in reports:
        report["elapsed_s"] = elapsed * len(report["bursts"]) / max(total_bursts, 1)
    return reports


def _decode_sliced(receiver, blocks: List[np.ndarray], n_info_bits: int) -> np.ndarray:
    """Decode the stacked code blocks, at most :data:`DECODE_SLICE` per pass."""
    if not blocks:
        return np.empty((0, n_info_bits), dtype=np.uint8)
    coded = np.concatenate(blocks)
    return np.concatenate(
        [
            receiver.decode(coded[start : start + DECODE_SLICE], n_info_bits)
            for start in range(0, coded.shape[0], DECODE_SLICE)
        ]
    )


def _front_end_burst(
    transceiver: MimoTransceiver,
    spec: SweepSpec,
    point: SweepPoint,
    fixed_fading,
    burst_index: int,
):
    """Transmit one burst of a point and run the receive front end on it.

    Returns ``(info_bits, coded)`` — the transmitted bits, ``(n_streams,
    n_info_bits)``, and the recovered code blocks — or ``None`` when the
    receiver gives up on the burst.  ``fixed_fading`` is the point's fading
    realisation when the spec keeps one fixed, else ``None``.
    """
    payload_seed, fading_seed, noise_seed = burst_seed(spec, point, burst_index).spawn(3)
    fading = (
        fixed_fading
        if fixed_fading is not None
        else build_fading(point, np.random.default_rng(fading_seed))
    )
    impairment = point.impairment or ImpairmentSpec()
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
    air = transceiver.transmit_burst(
        spec.n_info_bits,
        rng=np.random.default_rng(payload_seed),
        known_timing=spec.known_timing,
    )
    try:
        front = transceiver.receiver.front_end(
            air.samples,
            spec.n_info_bits,
            lts_start=air.lts_start,
            noise_variance=air.noise_variance,
        )
    except DecodingError:
        # Deep in the noise the receiver gives up: the time synchroniser
        # misses the burst entirely, locks onto a window that starts before
        # the first received sample, or a rank-deficient estimate stops the
        # channel inversion (ChannelEstimationError is a DecodingError) or
        # leaves the MMSE weights unsolvable.  A sweep over extreme
        # operating points must survive all of those: the caller counts the
        # burst as a fully errored frame (every payload bit lost).
        return None
    return np.asarray(air.burst.info_bits, dtype=np.uint8), front.coded
