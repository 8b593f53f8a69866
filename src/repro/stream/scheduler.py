"""Downlink scheduler: N user queues multiplexed over one air interface.

:class:`DownlinkScheduler` is the traffic side of the streaming subsystem:
per-user frame queues are filled by a traffic model
(:mod:`repro.stream.traffic`), a scheduling discipline (pure round-robin
or smooth weighted round-robin) picks which queue transmits next, and each
served frame travels the full physical layer — transmit burst, fading
channel with optional front-end impairments, AWGN, through the sweep
engine's own :func:`~repro.sim.engine.air_round` — into the
chunk-invariant :class:`~repro.stream.pipeline.StreamingReceiver`, whose
detected-and-decoded frames are matched back to the frames that went on
air.

Two clocks run side by side and must not be confused:

* **simulated air time** advances by each frame's duration at the
  configuration's ``clock_hz`` (the paper's 100 MHz baseband clock);
  enqueue→decode *latency* —
  queueing delay plus transmission time — lives on this clock;
* **wall-clock time** measures how fast the software pipeline ran;
  *sustained frames/sec* lives on this clock.

Idle air (every queue empty) advances the simulated clock without
generating samples — the receiver's stream is the back-to-back
concatenation of transmitted frames, so detector throughput is spent on
frames, not on noise between them.  The scheduler serves frames in
groups of :data:`FRAMES_PER_PUSH`: the air clock needs only each frame's
length (``frame_length`` plus the impairment's ``sample_delay``), so a
frame's timing is settled when it is served, and the whole group goes on
air in one stacked transmit pass when it is pushed, after which the
receiver decodes the group's frames in one stacked pass.

Determinism: every (user, frame) derives payload, fading and noise streams
from :func:`repro.sim.engine.stream_frame_seed`, split by
:func:`~repro.sim.engine.air_round` exactly as a sweep burst's seed is,
and every user's arrival
process from its own seed, so a thousand-user run is bit-reproducible
regardless of scheduling order, push grouping or traffic model.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import TransceiverConfig
from repro.core.frame import BurstOutcome
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError, integer_at_least
from repro.sim.engine import AirCell, air_round, impaired_config, stream_frame_seed
from repro.sim.spec import CHANNEL_MODELS, ImpairmentSpec
from repro.stream.metrics import LatencySummary, ServiceReport, UserStats
from repro.stream.pipeline import DecodedFrame, StreamingReceiver
from repro.stream.traffic import PoissonTraffic, arrival_times

#: Entropy tag for per-user arrival-process seeds; disjoint from the
#: per-(user, frame) physics tree (which uses a four-element seed list).
_ARRIVAL_TAG = 0xA221

#: Served frames that go on air in one stacked transmit pass and into the
#: receive stream as one chunk: the receiver decodes a push's frames in one
#: stacked pass, so a group amortises both passes' per-call cost while
#: keeping the buffered samples bounded.  The detector is chunk-invariant
#: and latency lives on the air clock, so the grouping changes no report
#: field but the wall-clock ones.
FRAMES_PER_PUSH = 4


@dataclass
class _InFlight:
    """One served frame awaiting its detected window in the receive stream;
    its reference bits arrive when its push group goes on air."""

    user: int
    frame_index: int
    arrival_s: float
    done_s: float
    expected_start: int
    reference_bits: Optional[List[np.ndarray]] = None


class DownlinkScheduler:
    """Multiplex N per-user frame queues over one simulated air interface.

    Parameters
    ----------
    n_users:
        Number of user streams.
    frames_per_user:
        Frames each user's traffic source offers (the run serves all of
        them; latency reflects any queueing backlog the load builds up).
    traffic:
        Traffic model shared by every user, or a callable ``user -> model``
        for heterogeneous populations.  Defaults to Poisson arrivals at
        100 frames/sec per user.
    mode:
        ``"round_robin"`` — cycle over backlogged users; or ``"weighted"``
        — smooth weighted round-robin: every backlogged user's credit
        grows by its weight each decision, the largest credit transmits
        and pays back the participating total, so long-run service shares
        track the weights without starving anyone.
    weights:
        Per-user service weights for ``"weighted"`` mode (default: equal).
    n_info_bits:
        Information bits per spatial stream per frame.
    channel:
        Fading model name (``"ideal"``, ``"flat_rayleigh"``,
        ``"frequency_selective"``) — a fresh realisation per frame, the
        sweep engine's fresh-fading convention.  Any other name raises
        :class:`~repro.exceptions.ConfigurationError`.
    snr_db:
        AWGN level (``None`` disables noise); a NaN or infinite level
        raises :class:`~repro.exceptions.ConfigurationError`.
    impairment:
        Optional front-end :class:`~repro.sim.spec.ImpairmentSpec` (CFO,
        sample delay, IQ imbalance, fixed-point formats), wired into both
        the channel and the receiver exactly like the sweep engine does.
    config:
        Base transceiver configuration (default: the paper's 4x4/64-point
        build).  Impairment-driven receiver settings (CFO correction, RX
        formats) are applied on top; its ``clock_hz`` converts frame
        lengths into air time.
    base_seed:
        Root of the deterministic seed tree.
    """

    def __init__(
        self,
        n_users: int,
        frames_per_user: int = 2,
        traffic: Union[None, object, Callable[[int], object]] = None,
        mode: str = "round_robin",
        weights: Optional[Sequence[float]] = None,
        n_info_bits: int = 256,
        channel: str = "flat_rayleigh",
        snr_db: Optional[float] = 30.0,
        impairment: Optional[ImpairmentSpec] = None,
        config: Optional[TransceiverConfig] = None,
        base_seed: int = 0,
    ) -> None:
        self.n_users = integer_at_least("n_users", n_users, 1)
        self.frames_per_user = integer_at_least("frames_per_user", frames_per_user, 0)
        self.n_info_bits = integer_at_least("n_info_bits", n_info_bits, 1)
        self.base_seed = integer_at_least("base_seed", base_seed, 0)
        if mode not in ("round_robin", "weighted"):
            raise ConfigurationError("mode must be 'round_robin' or 'weighted'")
        if snr_db is not None and not np.isfinite(snr_db):
            raise ConfigurationError(f"snr_db must be finite or None, got {snr_db}")
        if channel not in CHANNEL_MODELS:
            raise ConfigurationError(
                f"unknown channel model {channel!r}; expected one of {CHANNEL_MODELS}"
            )
        self.mode = mode
        if weights is None:
            self.weights = np.ones(self.n_users, dtype=np.float64)
        else:
            self.weights = np.asarray(weights, dtype=np.float64)
            if self.weights.shape != (self.n_users,):
                raise ConfigurationError("weights must have one entry per user")
            if np.any(self.weights <= 0):
                raise ConfigurationError("weights must be positive")
        if traffic is None:
            traffic = PoissonTraffic(100.0)
        self._traffic_for = traffic if callable(traffic) else (lambda user: traffic)
        self.channel = channel
        self.snr_db = snr_db
        self.impairment = impairment if impairment is not None else ImpairmentSpec()

        self.config = impaired_config(
            config if config is not None else TransceiverConfig(), self.impairment
        )
        self.transmitter = MimoTransmitter(self.config)
        self.pipeline = StreamingReceiver(
            receiver=MimoReceiver(self.config), n_info_bits=self.n_info_bits
        )
        self.frame_length = self.pipeline.frame_length

    # ------------------------------------------------------------------
    # scheduling disciplines
    # ------------------------------------------------------------------
    def _pick_user(self, qlen: np.ndarray, credit: np.ndarray, rr_next: int) -> int:
        backlogged = qlen > 0
        if self.mode == "weighted":
            credit[backlogged] += self.weights[backlogged]
            candidate = np.where(backlogged, credit, -np.inf)
            user = int(np.argmax(candidate))
            credit[user] -= float(self.weights[backlogged].sum())
            return user
        users = np.nonzero(backlogged)[0]
        ahead = users[users >= rr_next]
        return int(ahead[0] if ahead.size else users[0])

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        """Serve every offered frame; return the aggregate service report."""
        started = time.perf_counter()

        users: Dict[int, UserStats] = {
            user: UserStats(user=user) for user in range(self.n_users)
        }
        arrivals: List[tuple] = []
        for user in range(self.n_users):
            seed = np.random.SeedSequence([self.base_seed, _ARRIVAL_TAG, user])
            times = arrival_times(
                self._traffic_for(user),
                self.frames_per_user,
                rng=np.random.default_rng(seed),
            )
            users[user].frames_offered = int(times.size)
            for frame_index, instant in enumerate(times):
                heapq.heappush(arrivals, (float(instant), user, frame_index))

        queues: List[deque] = [deque() for _ in range(self.n_users)]
        qlen = np.zeros(self.n_users, dtype=np.int64)
        credit = np.zeros(self.n_users, dtype=np.float64)
        rr_next = 0
        in_flight: deque = deque()
        group: List[Tuple[_InFlight, AirCell]] = []  # served, not yet on air
        air_s = 0.0      # simulated clock
        busy_s = 0.0     # air-interface occupancy
        stream_cursor = 0
        served = 0
        spurious = 0
        delivered = 0
        lost = 0
        bits_delivered = 0
        half_frame = self.frame_length // 2
        # Every frame occupies the same air: the burst plus the timing delay.
        frame_on_air = self.frame_length + self.impairment.sample_delay
        duration_s = frame_on_air / self.config.clock_hz

        def settle(decoded: Sequence[DecodedFrame]) -> None:
            """Match decoded windows back to the frames that went on air."""
            nonlocal spurious, delivered, lost, bits_delivered
            for frame in decoded:
                start = frame.window.start
                # Served frames whose window is now behind the stream were
                # never detected: the sync miss loses them.
                while in_flight and in_flight[0].expected_start < start - half_frame:
                    missed = in_flight.popleft()
                    users[missed.user].frames_lost += 1
                    lost += 1
                if in_flight and abs(start - in_flight[0].expected_start) <= half_frame:
                    entry = in_flight.popleft()
                    stats = users[entry.user]
                    outcome = BurstOutcome.score(frame.outcome, entry.reference_bits)
                    if not outcome.decode_failure:
                        # Only a decoded frame has a latency and residual
                        # errors; a give-up is a loss and nothing more.
                        stats.latency_samples.append(entry.done_s - entry.arrival_s)
                        stats.bit_errors += outcome.bit_errors
                    if outcome.frame_error:
                        stats.frames_lost += 1
                        lost += 1
                    else:
                        stats.frames_delivered += 1
                        stats.bits_delivered += outcome.payload_bits
                        bits_delivered += outcome.payload_bits
                        delivered += 1
                else:
                    # A detection that matches nothing on air.
                    spurious += 1

        def push() -> None:
            """Put the group on air in one round and receive it as one chunk."""
            sent = air_round(
                self.transmitter, [cell for _, cell in group], self.n_info_bits
            )
            for (entry, _), air in zip(group, sent):
                entry.reference_bits = air.burst.info_bits
            group.clear()
            settle(self.pipeline.push(np.concatenate([air.samples for air in sent], axis=1)))

        total_frames = self.n_users * self.frames_per_user
        while served < total_frames:
            while arrivals and arrivals[0][0] <= air_s:
                instant, user, frame_index = heapq.heappop(arrivals)
                queues[user].append((instant, frame_index))
                qlen[user] += 1
            if not qlen.any():
                # Idle air: jump to the next arrival (no samples generated).
                air_s = arrivals[0][0]
                continue
            user = self._pick_user(qlen, credit, rr_next)
            rr_next = (user + 1) % self.n_users
            arrival_s, frame_index = queues[user].popleft()
            qlen[user] -= 1

            done_s = air_s + duration_s
            entry = _InFlight(
                user=user,
                frame_index=frame_index,
                arrival_s=float(arrival_s),
                done_s=done_s,
                expected_start=stream_cursor + self.impairment.sample_delay,
            )
            in_flight.append(entry)
            group.append(
                (
                    entry,
                    AirCell(
                        stream_frame_seed(self.base_seed, user, frame_index),
                        self.channel,
                        self.snr_db,
                        self.impairment,
                    ),
                )
            )
            users[user].frames_served += 1
            served += 1
            stream_cursor += frame_on_air
            air_s = done_s
            busy_s += duration_s
            if len(group) == FRAMES_PER_PUSH:
                push()

        if group:
            push()
        settle(self.pipeline.flush())
        while in_flight:
            missed = in_flight.popleft()
            users[missed.user].frames_lost += 1
            lost += 1

        wall_s = time.perf_counter() - started
        all_latencies: List[float] = []
        for stats in users.values():
            all_latencies.extend(stats.latency_samples)
        return ServiceReport(
            n_users=self.n_users,
            frames_offered=sum(s.frames_offered for s in users.values()),
            frames_served=served,
            frames_delivered=delivered,
            frames_lost=lost,
            spurious_detections=spurious,
            air_time_s=busy_s,
            wall_time_s=wall_s,
            sustained_fps=served / wall_s if wall_s > 0 else 0.0,
            goodput_bps=bits_delivered / busy_s if busy_s > 0 else 0.0,
            loss_rate=lost / served if served else 0.0,
            latency=LatencySummary.from_samples(all_latencies),
            users=users,
        )
