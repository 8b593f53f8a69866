"""Burst-level simulation engine behind the sweep runner.

This module turns a :class:`~repro.sim.spec.SweepPoint` into actual link
simulations: it builds the :class:`~repro.core.config.TransceiverConfig` and
channel model a grid cell describes (the impairment wiring the streaming
scheduler reuses), runs batches of bursts with deterministic per-burst
seed streams, and reports per-burst BER/PER counts with optional early
stopping.  :func:`simulate_batch` is the unit of work the
:class:`~repro.sim.runner.SweepRunner` fans out over its worker pool — one
batch of bursts for each of several points of one air group
(:meth:`~repro.core.config.TransceiverConfig.air_group`), each distinct
burst put on air and through the shared receive stage once, detected once
per detector, and all decoded in one trellis pass.  It is a module-level
function taking one picklable payload so it crosses process
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
from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.model import IdealChannel, MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import AirBurst, transmit_burst
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError, DecodingError
from repro.sim.cache import content_key
from repro.sim.spec import CHANNEL_MODELS, ImpairmentSpec, SweepPoint, SweepSpec
from repro.utils.rng import SeedLike

#: Entropy tag appended to ``base_seed`` for the shared fading realisation
#: used when ``fresh_fading_per_burst`` is off; keeps that stream disjoint
#: from every per-(point, batch) stream (which append the point index).
_FIXED_FADING_TAG = 0x0FAD


def build_config(point: SweepPoint, spec: SweepSpec) -> TransceiverConfig:
    """Transceiver configuration for one grid cell.

    The cell's modulation, coding, antenna count and detector, with its
    front-end condition overlaid by :func:`impaired_config`.
    """
    return impaired_config(
        TransceiverConfig(
            n_antennas=point.n_streams,
            fft_size=spec.fft_size,
            modulation=point.modulation,
            code_rate=point.code_rate,
            soft_decision=spec.soft_decision,
            detector=point.detector,
        ),
        point.impairment or ImpairmentSpec(),
    )


def air_key(point: SweepPoint, spec: SweepSpec) -> str:
    """Content hash of a cell's :meth:`~repro.sim.spec.SweepPoint.seed_payload`,
    the entropy of its :func:`burst_seed`.

    Cells with equal keys — *twins*, which differ only in the receive
    half (the detector) — draw the same payload, fading and noise at every
    burst index, so a work unit puts each of their bursts on air once.
    """
    return content_key(point.seed_payload(spec))


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


def impaired_channel(
    fading, snr_db: float, impairment: ImpairmentSpec, rng: SeedLike
) -> MimoChannel:
    """The air channel of one burst under an impairment.

    ``fading`` and AWGN at ``snr_db``, plus the impairment's CFO, timing
    delay, IQ imbalance and TX quantisation.  The sweep engine and the
    streaming scheduler both build their channels here.
    """
    return MimoChannel(
        fading=fading,
        snr_db=snr_db,
        cfo_normalized=impairment.cfo_normalized,
        sample_delay=impairment.sample_delay,
        iq_amplitude_db=impairment.iq_amplitude_db,
        iq_phase_deg=impairment.iq_phase_deg,
        tx_quantization=impairment.tx_format,
        rng=rng,
    )


def build_fading_model(channel: str, n_streams: int, rng: SeedLike):
    """Fading model instance by name (fresh realisation per call).

    Takes a channel name and antenna count rather than a
    :class:`SweepPoint`, so the streaming scheduler, which has no point,
    builds its per-frame realisations the same way as the sweep engine.
    """
    n = n_streams
    if channel == "ideal":
        return IdealChannel(n, n)
    if channel == "flat_rayleigh":
        return FlatRayleighChannel(n, n, rng=rng)
    if channel == "frequency_selective":
        return FrequencySelectiveChannel(n, n, rng=rng)
    raise ConfigurationError(f"unknown channel model {channel!r}")


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
def _transceiver_for(config: TransceiverConfig) -> Tuple[MimoTransmitter, MimoReceiver]:
    """Reusable transmitter and receiver per configuration.

    Building them constructs the full trellis, constellation tables and
    preamble; reusing them across bursts and batches keeps the hot loop
    hot.  Every burst goes on air through its own channel
    (:func:`air_burst`).
    """
    return MimoTransmitter(config), MimoReceiver(config)


def burst_seed(key: str, burst_index: int) -> np.random.SeedSequence:
    """Deterministic seed of one (point, burst) cell of the seed tree, from
    the point's :func:`air_key`.

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
    return np.random.SeedSequence([int(key, 16), int(burst_index)])


def lost_frame_counts(n_info_bits: int, n_streams: int) -> Dict[str, int]:
    """Per-burst counts for a frame the receiver could not decode at all.

    :func:`simulate_batch` counts a burst the receiver gives up on (a sync
    miss, a truncated or non-finite window, a rank-deficient estimate) as
    losing *every* payload bit, so BER and PER both see the lost frame.
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


def air_burst(
    transmitter: MimoTransmitter,
    seed: np.random.SeedSequence,
    channel: str,
    snr_db: Optional[float],
    impairment: ImpairmentSpec,
    n_info_bits: int,
    known_timing: bool = False,
    fixed_fading=None,
) -> AirBurst:
    """Put one seeded burst on air: the sweep's and the stream's one TX path.

    ``seed`` (a :func:`burst_seed` or :func:`stream_frame_seed`) spawns the
    payload, fading and noise generators, in that order.  The burst crosses
    a fresh :func:`impaired_channel` over a fresh ``channel`` fading
    realisation, or over ``fixed_fading`` when the caller keeps one
    realisation fixed (its fading generator then goes unused), through
    :func:`~repro.core.transceiver.transmit_burst`.
    """
    payload_seed, fading_seed, noise_seed = seed.spawn(3)
    fading = (
        fixed_fading
        if fixed_fading is not None
        else build_fading_model(
            channel, transmitter.config.n_antennas, np.random.default_rng(fading_seed)
        )
    )
    return transmit_burst(
        transmitter,
        impaired_channel(fading, snr_db, impairment, np.random.default_rng(noise_seed)),
        n_info_bits,
        rng=np.random.default_rng(payload_seed),
        known_timing=known_timing,
    )


def simulate_batch(task: dict) -> List[Dict[str, object]]:
    """Simulate one work unit: a batch of bursts for each of several points.

    ``task`` is a plain-JSON payload::

        {"spec": SweepSpec.to_dict(),
         "items": [{"point": SweepPoint.to_dict(), "start_burst": int,
                    "n_bursts": int, "batch_index": int}, ...]}

    Every item's point must share one
    :meth:`~repro.core.config.TransceiverConfig.air_group`; their detectors
    may differ.  Each burst in an item's ``[start_burst, start_burst +
    n_bursts)`` derives payload, fading and noise generators from its own
    :func:`burst_seed`.  The unit advances its items in lockstep rounds.  A
    round takes the next burst of every live item and puts each distinct
    ``(air_key, burst index)`` on air once through :func:`air_burst`, so
    twins (items differing only in the detector) receive the very same
    samples.  The distinct bursts go through one shared receive stage
    (:meth:`~repro.core.receiver.MimoReceiver.demodulate_stack`: sync,
    CFO, FFTs and channel estimate), each detector's items through their
    receiver's :meth:`~repro.core.receiver.MimoReceiver.detect_stack`, and
    every item's code blocks through one
    :meth:`~repro.core.receiver.MimoReceiver.decode_stack` (one decode
    that runs at most :data:`~repro.core.receiver.DECODE_SLICE` blocks per
    trellis pass).  Each is then scored with
    :meth:`~repro.core.frame.ReceiveResult.total_bit_errors`.  Bursts are
    independent in every stack, so each burst's bits are exactly what
    receiving it alone would give, and a burst the receiver gives up on
    drops out alone as a lost frame.  An item retires at the burst whose
    item-local cumulative bit errors reach ``target_errors``, and its later
    bursts are never simulated (a twin still live goes on air alone): the
    global cumulative count at any burst is at least the item-local one,
    so the runner's fold would discard them.

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

    configs = [build_config(point, spec) for point in points]
    if len({config.air_group() for config in set(configs)}) > 1:
        raise ConfigurationError("every item of a work unit must share one air group")
    # The first item's receiver runs the shared stage and the decode; each
    # detector's receiver runs its items' detector stage.
    transmitter, receiver = _transceiver_for(configs[0])
    detectors = {config: _transceiver_for(config)[1] for config in dict.fromkeys(configs)}
    keys = [air_key(point, spec) for point in points]
    # One fixed fading realisation per air cell: twins share it.
    fixed_fadings = {
        key: None
        if spec.fresh_fading_per_burst
        else build_fading_model(
            point.channel,
            point.n_streams,
            np.random.default_rng(fixed_fading_seed(spec, point)),
        )
        for key, point in dict(zip(keys, points)).items()
    }

    reports: List[Dict[str, object]] = [
        {"batch_index": int(item["batch_index"]), "bursts": []} for item in items
    ]
    errors = [0] * len(items)
    live = list(range(len(items)))
    for offset in range(max(int(item["n_bursts"]) for item in items)):
        cells: Dict[Tuple[str, int], List[int]] = {}
        for i in live:
            cells.setdefault((keys[i], int(items[i]["start_burst"]) + offset), []).append(i)
        row_of = {i: row for row, members in enumerate(cells.values()) for i in members}
        sent = [
            air_burst(
                transmitter,
                burst_seed(key, burst),
                points[i].channel,
                points[i].snr_db,
                points[i].impairment or ImpairmentSpec(),
                spec.n_info_bits,
                known_timing=spec.known_timing,
                fixed_fading=fixed_fadings[key],
            )
            for (key, burst), (i, *_) in cells.items()
        ]
        references = [air.burst.info_bits for air in sent]
        demodulated = receiver.demodulate_stack(
            [air.samples for air in sent],
            spec.n_info_bits,
            [air.lts_start for air in sent],
            [air.noise_variance for air in sent],
        )
        del sent  # the transmitted bursts need not outlive the shared stage
        variants: Dict[TransceiverConfig, List[int]] = {}
        for i in live:
            variants.setdefault(configs[i], []).append(i)
        fronts = {}
        for config, members in variants.items():
            detected = detectors[config].detect_stack(
                demodulated, [row_of[i] for i in members]
            )
            fronts.update(zip(members, detected))
        # Deep in the noise the receiver gives up on a burst: the time
        # synchroniser misses it or locks too late for its preamble, a
        # window starts before the first received sample, or a
        # rank-deficient estimate stops the channel inversion or the MMSE
        # solve.  That burst alone comes back as a DecodingError, counted
        # as a fully errored frame (every payload bit lost).
        outcomes = receiver.decode_stack([fronts[i] for i in live], spec.n_info_bits)
        for i, outcome in zip(live, outcomes):
            if isinstance(outcome, DecodingError):
                burst = lost_frame_counts(spec.n_info_bits, points[i].n_streams)
            else:
                bit_errors = outcome.total_bit_errors(references[row_of[i]])
                burst = {
                    "bit_errors": bit_errors,
                    "total_bits": spec.n_info_bits * points[i].n_streams,
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
