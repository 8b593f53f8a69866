"""Downlink scheduler: N user queues multiplexed over one air interface.

:class:`DownlinkScheduler` is the traffic side of the streaming subsystem:
per-user frame queues are filled by a traffic model
(:mod:`repro.stream.traffic`), a scheduling discipline (pure round-robin
or smooth weighted round-robin) picks which queue transmits next, and each
served frame travels the full physical layer — transmit burst, fading
channel with optional front-end impairments, AWGN, through the link's one
air path, :func:`~repro.core.transceiver.air_round` — into the
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
frames, not on noise between them.  The air clock needs only each
frame's length (``frame_length`` plus the impairment's ``sample_delay``),
so a run first plans every frame's slot on it without any physics, then
puts the frames on air in groups of :data:`FRAMES_PER_PUSH`: one stacked
transmit pass per group, whose samples the receiver takes as one push.
It runs the group's front end in one stacked pass and decodes two
groups' frames per trellis pass (64 code blocks at 4x4), so a frame may
come back from a later push than its own, and the final flush returns the
rest.  Only the group's reference bits and its samples outlive the
transmit pass: a push never holds the group's transmitted bursts.

Determinism: every (user, frame) derives payload, fading and noise streams
from :func:`stream_frame_seed`, split by
:func:`~repro.core.transceiver.air_round` exactly as a sweep burst's seed
is, and every user's arrival process from its own seed, so a
thousand-user run is bit-reproducible regardless of scheduling order,
push grouping or traffic model.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.channel.impairments import ImpairmentSpec
from repro.channel.model import CHANNEL_MODELS
from repro.core.config import TransceiverConfig
from repro.core.frame import BurstOutcome
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import AirCell, air_round, impaired_config
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError, integer_at_least
from repro.stream.metrics import LatencySummary, ServiceReport, UserStats
from repro.stream.pipeline import StreamingReceiver
from repro.stream.traffic import PoissonTraffic, arrival_times

#: Entropy tag for per-user arrival-process seeds; disjoint from the
#: per-(user, frame) physics tree (which uses a four-element seed list).
_ARRIVAL_TAG = 0xA221

#: Entropy tag for streaming per-(user, frame) seeds; disjoint from the
#: sweep's per-(point, burst) tree and its fixed-fading stream.
_STREAM_TAG = 0x57EA

#: Served frames that go on air in one stacked transmit pass and into the
#: receive stream as one chunk: the receiver runs a push's front end in one
#: stacked pass, so a group amortises both passes' per-call cost while
#: keeping the buffered samples bounded.  Eight 4x4 frames fill half a
#: ``DECODE_SLICE``, so the receiver decodes every second push; 16-frame
#: groups reach the same trellis height but raise peak memory.  The
#: detector is chunk-invariant and latency lives on the air clock, so the
#: grouping changes no report field but the wall-clock ones.
FRAMES_PER_PUSH = 8


def stream_frame_seed(base_seed: int, user: int, frame_index: int) -> np.random.SeedSequence:
    """Deterministic seed of one (user, frame) cell of the streaming tree.

    The streaming counterpart of the sweep's
    :func:`repro.sim.engine.burst_seed`: payload, fading and noise
    generators for every user's every frame derive from this, so a
    multi-user run is bit-reproducible for any scheduling order and never
    collides with a sweep using the same base seed.
    """
    return np.random.SeedSequence([base_seed, _STREAM_TAG, user, frame_index])


class Slot(NamedTuple):
    """One served frame: its arrival and the end of its air time."""

    user: int
    frame_index: int
    arrival_s: float
    done_s: float


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
        Traffic model of every user (each user draws its own arrivals
        from it, seeded per user), any object with
        ``intervals(n_frames, rng)``.  Defaults to Poisson arrivals at 100
        frames/sec per user.
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
        Optional front-end :class:`~repro.channel.impairments.ImpairmentSpec` (CFO,
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
        traffic=None,
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
        self.traffic = traffic if traffic is not None else PoissonTraffic(100.0)
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
        self.frame_length = self.pipeline.layout.length

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
    def plan(self) -> Tuple[List[Slot], float]:
        """Serve every offered frame on the air clock, without physics:
        each frame's slot in service order, and the air occupancy.

        A frame's sojourn time — queueing delay plus its own air time — is
        ``done_s - arrival_s``; :meth:`run` puts the frames on air in this
        order.
        """
        arrivals: List[tuple] = []
        for user in range(self.n_users):
            seed = np.random.SeedSequence([self.base_seed, _ARRIVAL_TAG, user])
            times = arrival_times(
                self.traffic, self.frames_per_user, rng=np.random.default_rng(seed)
            )
            for frame_index, instant in enumerate(times):
                heapq.heappush(arrivals, (float(instant), user, frame_index))

        queues: List[deque] = [deque() for _ in range(self.n_users)]
        qlen = np.zeros(self.n_users, dtype=np.int64)
        credit = np.zeros(self.n_users, dtype=np.float64)
        rr_next = 0
        slots: List[Slot] = []
        air_s = 0.0      # simulated clock
        busy_s = 0.0     # air-interface occupancy
        duration_s = (self.frame_length + self.impairment.sample_delay) / self.config.clock_hz
        while len(slots) < self.n_users * self.frames_per_user:
            while arrivals and arrivals[0][0] <= air_s:
                instant, user, frame_index = heapq.heappop(arrivals)
                queues[user].append((instant, frame_index))
                qlen[user] += 1
            if not qlen.any():
                air_s = arrivals[0][0]  # idle air: jump to the next arrival
                continue
            user = self._pick_user(qlen, credit, rr_next)
            rr_next = (user + 1) % self.n_users
            arrival_s, frame_index = queues[user].popleft()
            qlen[user] -= 1
            done_s = air_s + duration_s
            slots.append(Slot(user, frame_index, float(arrival_s), done_s))
            air_s = done_s
            busy_s += duration_s
        return slots, busy_s

    def run(self) -> ServiceReport:
        """Serve every offered frame; return the aggregate service report.

        The frames go on air in their :meth:`plan` order, a push group
        at a time; the k-th frame's window is expected in the receive
        stream at ``k * frame_on_air + sample_delay``.
        """
        started = time.perf_counter()
        slots, busy_s = self.plan()
        users: Dict[int, UserStats] = {
            user: UserStats(user=user, frames_offered=self.frames_per_user)
            for user in range(self.n_users)
        }
        for slot in slots:
            users[slot.user].frames_served += 1

        delay = self.impairment.sample_delay
        frame_on_air = self.frame_length + delay
        half_frame = self.frame_length // 2
        references: deque = deque()  # reference bits of frames on air, not yet settled
        settled = 0
        spurious = 0

        def settle(decoded) -> None:
            """Match decoded windows back to the frames that went on air."""
            nonlocal settled, spurious
            for frame in decoded:
                start = frame.window.start
                # Frames whose window is now behind the stream were never
                # detected: the sync miss loses them.
                while references and settled * frame_on_air + delay < start - half_frame:
                    references.popleft()
                    users[slots[settled].user].frames_lost += 1
                    settled += 1
                if references and abs(start - (settled * frame_on_air + delay)) <= half_frame:
                    slot = slots[settled]
                    stats = users[slot.user]
                    outcome = BurstOutcome.score(frame.outcome, references.popleft())
                    settled += 1
                    if not outcome.decode_failure:
                        # Only a decoded frame has a latency and residual
                        # errors; a give-up is a loss and nothing more.
                        stats.latency_samples.append(slot.done_s - slot.arrival_s)
                        stats.bit_errors += outcome.bit_errors
                    if outcome.frame_error:
                        stats.frames_lost += 1
                    else:
                        stats.frames_delivered += 1
                        stats.bits_delivered += outcome.payload_bits
                else:
                    # A detection that matches nothing on air.
                    spurious += 1

        for first in range(0, len(slots), FRAMES_PER_PUSH):
            sent = air_round(
                self.transmitter,
                [
                    AirCell(
                        stream_frame_seed(self.base_seed, slot.user, slot.frame_index),
                        self.channel,
                        self.snr_db,
                        self.impairment,
                    )
                    for slot in slots[first : first + FRAMES_PER_PUSH]
                ],
                self.n_info_bits,
            )
            references.extend(air.burst.info_bits for air in sent)
            chunk = np.concatenate([air.samples for air in sent], axis=1)
            # The group's transmitted bursts and per-frame channel outputs
            # need not outlive its chunk: the push would hold them through
            # its decode.
            del sent
            settle(self.pipeline.push(chunk))
        settle(self.pipeline.flush())
        for slot in slots[settled:]:
            users[slot.user].frames_lost += 1

        wall_s = time.perf_counter() - started
        served = len(slots)
        lost = sum(stats.frames_lost for stats in users.values())
        bits_delivered = sum(stats.bits_delivered for stats in users.values())
        return ServiceReport(
            n_users=self.n_users,
            frames_offered=sum(stats.frames_offered for stats in users.values()),
            frames_served=served,
            frames_delivered=sum(stats.frames_delivered for stats in users.values()),
            frames_lost=lost,
            spurious_detections=spurious,
            air_time_s=busy_s,
            wall_time_s=wall_s,
            sustained_fps=served / wall_s if wall_s > 0 else 0.0,
            goodput_bps=bits_delivered / busy_s if busy_s > 0 else 0.0,
            loss_rate=lost / served if served else 0.0,
            latency=LatencySummary.from_samples(
                [s for stats in users.values() for s in stats.latency_samples]
            ),
            users=users,
        )
