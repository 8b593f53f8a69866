"""Burst-level simulation engine behind the sweep runner.

This module turns a :class:`~repro.sim.spec.SweepPoint` into link
simulations: it builds the :class:`~repro.core.config.TransceiverConfig` a
grid cell describes and puts seeded bursts on air, a round at a time,
through :func:`repro.core.transceiver.air_round` (one stacked transmit
pass, a channel per burst), the air path the streaming scheduler shares.
:func:`simulate_batch` runs the :class:`WorkUnit` the
:class:`~repro.sim.runner.SweepRunner` fans out over its worker pool — a
:class:`BatchItem` of bursts for each of several points of one air group
— and answers one :class:`BatchReport` of burst outcomes per item.  Units
and reports are frozen dataclasses, so they cross process boundaries by
pickling.

Seeding contract: every burst derives its RNG streams from
``SeedSequence([content_hash(point.seed_payload(spec)), burst_index])``, so
results are bit-identical whether batches run serially, in any order, or on
any number of workers — and identical for the same physical cell across
*different* grids, which is what lets the per-point result store share
records between overlapping sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.channel.impairments import ImpairmentSpec
from repro.channel.model import CHANNEL_MODELS
from repro.core.config import TransceiverConfig
from repro.core.frame import BurstOutcome
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import AirCell, air_round, impaired_config
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError
from repro.sim.cache import content_key
from repro.sim.spec import SweepPoint, SweepSpec

#: Entropy tag appended to ``base_seed`` for the shared fading realisation
#: used when ``fresh_fading_per_burst`` is off; keeps that stream disjoint
#: from every per-(point, batch) stream (which append the point index).
_FIXED_FADING_TAG = 0x0FAD


#: The ideal front end of a cell without an impairment.
_IDEAL_FRONT_END = ImpairmentSpec()


def build_config(point: SweepPoint, spec: SweepSpec) -> TransceiverConfig:
    """Transceiver configuration for one grid cell.

    The cell's modulation, coding, antenna count and detector, with its
    front-end condition overlaid by :func:`impaired_config`.  The cells of
    one configuration (a waterfall's SNRs, say) share one validated
    instance.
    """
    return _cell_config(
        point.n_streams,
        spec.fft_size,
        point.modulation,
        point.code_rate,
        spec.soft_decision,
        point.detector,
        point.impairment or _IDEAL_FRONT_END,
    )


@lru_cache(maxsize=256)
def _cell_config(
    n_streams: int,
    fft_size: int,
    modulation: str,
    code_rate: str,
    soft_decision: bool,
    detector: str,
    impairment: ImpairmentSpec,
) -> TransceiverConfig:
    """The configuration behind :func:`build_config`, keyed by exactly the
    fields of the cell and the spec it reads."""
    return impaired_config(
        TransceiverConfig(
            n_antennas=n_streams,
            fft_size=fft_size,
            modulation=modulation,
            code_rate=code_rate,
            soft_decision=soft_decision,
            detector=detector,
        ),
        impairment,
    )


def air_key(point: SweepPoint, spec: SweepSpec) -> str:
    """Content hash of a cell's :meth:`~repro.sim.spec.SweepPoint.seed_payload`,
    the entropy of its :func:`burst_seed`.

    Cells with equal keys — *twins*, which differ only in the receive
    half (the detector) — draw the same payload, fading and noise at every
    burst index, so a work unit puts each of their bursts on air once.
    """
    return content_key(point.seed_payload(spec))


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

    Building them constructs the trellis and constellation tables and
    takes the FFT size's shared preamble; reusing them across bursts and
    batches keeps the hot loop hot.  A round's bursts share one transmit
    pass and each crosses its own channel (:func:`air_round`).

    Eight entries still thrash on a pass over more configurations than
    that: a 16-configuration grid misses on every one of them, every
    pass.  The FFT size's shared preamble and the array-built trellis keep
    such a rebuild cheap.  The size stays because the repository benchmark
    records this cache's misses and checks that a wide pass has some, so
    resizing it is a change to that benchmark.
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


@dataclass(frozen=True)
class BatchItem:
    """One point's bursts ``[start_burst, start_burst + n_bursts)`` in a
    :class:`WorkUnit`, with the point's :func:`build_config` and
    :func:`air_key` as the runner worked them out; ``batch_index`` orders
    the item's report in the runner's fold."""

    point: SweepPoint
    config: TransceiverConfig
    air_key: str
    start_burst: int
    n_bursts: int
    batch_index: int


@dataclass(frozen=True)
class WorkUnit:
    """The task :func:`simulate_batch` runs: items of one air group under one spec."""

    spec: SweepSpec
    items: Tuple[BatchItem, ...]


@dataclass(frozen=True)
class BatchReport:
    """What :func:`simulate_batch` did with one :class:`BatchItem`: one
    :class:`~repro.core.frame.BurstOutcome` per simulated burst, in burst
    order."""

    batch_index: int
    outcomes: Tuple[BurstOutcome, ...]


def simulate_batch(unit: WorkUnit) -> List[BatchReport]:
    """Simulate one work unit; one :class:`BatchReport` per item, in order.

    The items share one :meth:`~repro.core.config.TransceiverConfig.air_group`
    (their detectors may differ) and advance in lockstep rounds.  A round
    puts each distinct ``(air_key, burst index)`` of its live items on air
    once, all of them in one :func:`air_round` seeded by
    :func:`burst_seed`, so twins receive the very same samples; runs the
    distinct bursts through one
    :meth:`~repro.core.receiver.MimoReceiver.demodulate_stack`, each
    detector's items through its
    :meth:`~repro.core.receiver.MimoReceiver.detect_stack` and every item
    through one :meth:`~repro.core.receiver.MimoReceiver.decode_stack`; and
    scores each with :meth:`~repro.core.frame.BurstOutcome.score`.  Bursts
    are independent in every stack, so each outcome is what receiving the
    burst alone gives.  An item retires at the burst whose item-local
    cumulative bit errors stop it (:meth:`~repro.sim.spec.SweepSpec.stops_at`):
    its later bursts would be discarded by the runner's fold, as the global
    count is at least the item-local one.
    """
    spec, items = unit.spec, unit.items

    configs = dict.fromkeys(item.config for item in items)
    if len({config.air_group() for config in configs}) > 1:
        raise ConfigurationError("every item of a work unit must share one air group")
    # The first item's receiver runs the shared stage and the decode; each
    # detector's receiver runs its items' detector stage.
    transmitter, receiver = _transceiver_for(items[0].config)
    detectors = {config: _transceiver_for(config)[1] for config in configs}

    outcomes: List[List[BurstOutcome]] = [[] for _ in items]
    errors = [0] * len(items)
    live = list(range(len(items)))
    offset = 0
    while live:
        cells: Dict[Tuple[str, int], List[int]] = {}
        for i in live:
            cells.setdefault((items[i].air_key, items[i].start_burst + offset), []).append(i)
        row_of = {i: row for row, members in enumerate(cells.values()) for i in members}
        sent = air_round(
            transmitter,
            [
                AirCell(
                    burst_seed(key, burst),
                    items[i].point.channel,
                    items[i].point.snr_db,
                    items[i].point.impairment or _IDEAL_FRONT_END,
                    None
                    if spec.fresh_fading_per_burst
                    else fixed_fading_seed(spec, items[i].point),
                )
                for (key, burst), (i, *_) in cells.items()
            ],
            spec.n_info_bits,
            known_timing=spec.known_timing,
        )
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
            variants.setdefault(items[i].config, []).append(i)
        fronts = {}
        for config, members in variants.items():
            detected = detectors[config].detect_stack(
                demodulated, [row_of[i] for i in members]
            )
            fronts.update(zip(members, detected))
        # Deep in the noise the receiver gives up on a burst (a sync miss or
        # late lock, a window before the first sample, a rank-deficient
        # estimate): that burst alone comes back as a DecodingError, scored
        # as a lost frame.
        received = receiver.decode_stack([fronts[i] for i in live], spec.n_info_bits)
        for i, result in zip(live, received):
            outcome = BurstOutcome.score(result, references[row_of[i]])
            outcomes[i].append(outcome)
            errors[i] += outcome.bit_errors
        live = [
            i
            for i in live
            if offset + 1 < items[i].n_bursts
            and not spec.stops_at(errors[i])
        ]
        offset += 1

    return [
        BatchReport(item.batch_index, tuple(bursts))
        for item, bursts in zip(items, outcomes)
    ]
