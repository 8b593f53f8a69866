"""Tests for the downlink scheduler, traffic models and service metrics."""

import numpy as np
import pytest

import repro.stream.scheduler as scheduler_module
from repro.core.config import TransceiverConfig
from repro.core.transmitter import MimoTransmitter
from repro.channel.impairments import ImpairmentSpec
from repro.sim.engine import air_key, burst_seed
from repro.sim.spec import SweepSpec
from repro.stream import (
    DownlinkScheduler,
    LatencySummary,
    PoissonTraffic,
    ServiceReport,
    UserStats,
    arrival_times,
)
from repro.stream.scheduler import stream_frame_seed

#: A small 2x2 build keeps the per-frame physics cheap in unit tests.
SMALL_CONFIG = TransceiverConfig(n_antennas=2)


class _ConstantRate:
    """Traffic with one frame every ``1 / rate_fps`` seconds, the first at 0."""

    def __init__(self, rate_fps):
        self.rate_fps = rate_fps

    def intervals(self, n_frames, rng=None):
        gaps = np.full(n_frames, 1.0 / self.rate_fps)
        gaps[:1] = 0.0
        return gaps


def _scheduler(**kwargs):
    defaults = dict(
        n_users=4,
        frames_per_user=2,
        traffic=PoissonTraffic(5000.0),
        snr_db=30.0,
        n_info_bits=128,
        config=SMALL_CONFIG,
        base_seed=7,
    )
    defaults.update(kwargs)
    return DownlinkScheduler(**defaults)


class TestTrafficModels:
    def test_poisson_is_deterministic_per_seed(self):
        model = PoissonTraffic(100.0)
        first = model.intervals(16, rng=np.random.default_rng(5))
        second = model.intervals(16, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(first, second)
        assert first.mean() == pytest.approx(0.01, rel=0.8)

    def test_arrival_times_are_cumulative(self):
        times = arrival_times(_ConstantRate(10.0), 3)
        np.testing.assert_allclose(times, [0.0, 0.1, 0.2])

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            PoissonTraffic(-1.0)


class TestLatencySummary:
    def test_empty_samples(self):
        summary = LatencySummary.from_samples([])
        assert summary.n == 0
        assert summary.p99 == 0.0

    def test_percentiles_ordered(self):
        summary = LatencySummary.from_samples(np.linspace(0.0, 1.0, 101))
        assert summary.n == 101
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.worst
        assert summary.p50 == pytest.approx(0.5)
        assert summary.worst == pytest.approx(1.0)


class TestSeeding:
    def test_stream_seeds_disjoint_from_sweep_seeds(self):
        spec = SweepSpec(base_seed=11)
        sweep = burst_seed(air_key(spec.points()[0], spec), 1).generate_state(4)
        stream = stream_frame_seed(11, 0, 1).generate_state(4)
        assert not np.array_equal(sweep, stream)

    def test_stream_seeds_distinct_per_user_and_frame(self):
        a = stream_frame_seed(1, 0, 0).generate_state(4)
        b = stream_frame_seed(1, 1, 0).generate_state(4)
        c = stream_frame_seed(1, 0, 1).generate_state(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestScheduler:
    def test_serves_every_offered_frame(self):
        report = _scheduler().run()
        assert report.frames_offered == 8
        assert report.frames_served == 8
        assert report.frames_delivered + report.frames_lost == 8
        assert report.n_users == 4
        assert report.air_time_s > 0
        assert report.wall_time_s > 0
        assert report.sustained_fps > 0

    def test_runs_are_bit_reproducible(self):
        first = _scheduler().run()
        second = _scheduler().run()
        assert first.frames_delivered == second.frames_delivered
        assert first.latency.p99 == second.latency.p99
        for user in first.users:
            assert (
                first.users[user].latency_samples
                == second.users[user].latency_samples
            )
            assert first.users[user].bit_errors == second.users[user].bit_errors

    def test_round_robin_serves_users_equally(self):
        report = _scheduler(traffic=_ConstantRate(50000.0)).run()
        assert {s.frames_served for s in report.users.values()} == {2}

    def test_weighted_mode_respects_weights(self):
        # Saturated queues: every user always has backlog, so smooth WRR
        # service shares must track the weights over the run.
        report = _scheduler(
            n_users=2,
            frames_per_user=6,
            traffic=_ConstantRate(1e6),
            mode="weighted",
            weights=[2.0, 1.0],
        ).run()
        served = [report.users[u].frames_served for u in (0, 1)]
        assert served == [6, 6]  # everything offered is eventually served
        # The weighted share shows up in the latency: the heavy user waits
        # less per frame than the light one.
        assert (
            report.users[0].latency().mean < report.users[1].latency().mean
        )

    def test_latency_includes_queueing_delay(self):
        # All 8 frames arrive at t~0 (an enormous constant rate), so frame k
        # in the service order waits k frame-durations: the latencies are
        # d, 2d, ..., 8d and the worst must sit well above the median.
        report = _scheduler(traffic=_ConstantRate(1e9), channel="ideal", snr_db=None).run()
        latency = report.latency
        assert latency.n == 8
        assert latency.worst > 1.5 * latency.p50

    def test_clean_channel_delivers_everything(self):
        report = _scheduler(channel="ideal", snr_db=None).run()
        assert report.frames_delivered == report.frames_served
        assert report.loss_rate == 0.0
        assert report.spurious_detections == 0
        assert report.goodput_bps > 0

    def test_goodput_times_air_time_is_the_delivered_bits(self):
        # With no noise on the ideal channel every served frame is
        # delivered with all of its streams' information bits.
        scheduler = _scheduler(n_users=5, frames_per_user=3, channel="ideal", snr_db=None)
        report = scheduler.run()
        assert report.frames_delivered == report.frames_served == 15
        bits_delivered = sum(stats.bits_delivered for stats in report.users.values())
        assert bits_delivered == (
            report.frames_served * scheduler.config.n_antennas * scheduler.n_info_bits
        )
        assert report.goodput_bps * report.air_time_s == pytest.approx(
            bits_delivered, rel=1e-12
        )

    def test_per_user_percentile_distribution(self):
        report = _scheduler(channel="ideal", snr_db=None).run()
        spread = report.user_latency_percentiles(99.0)
        assert spread.n == 4
        assert spread.p50 > 0

    def test_per_user_percentiles_of_multi_frame_users(self):
        # Each user's own p50 over its frames, then the spread across users;
        # a user without decoded frames contributes nothing.
        users = {
            0: UserStats(user=0, latency_samples=[1.0, 3.0]),
            1: UserStats(user=1, latency_samples=[2.0, 4.0, 6.0]),
            2: UserStats(user=2, latency_samples=[10.0, 20.0, 30.0, 40.0]),
            3: UserStats(user=3),
        }
        aggregate = LatencySummary.from_samples(
            [s for stats in users.values() for s in stats.latency_samples]
        )
        report = ServiceReport(
            n_users=4,
            frames_offered=9,
            frames_served=9,
            frames_delivered=9,
            frames_lost=0,
            spurious_detections=0,
            air_time_s=1.0,
            wall_time_s=1.0,
            sustained_fps=9.0,
            goodput_bps=0.0,
            loss_rate=0.0,
            latency=aggregate,
            users=users,
        )
        medians = report.user_latency_percentiles(50.0)
        assert medians.n == 3
        assert medians == LatencySummary.from_samples([2.0, 4.0, 25.0])
        worst = report.user_latency_percentiles(100.0)
        assert worst.worst == 40.0
        assert worst.p50 == 6.0
        assert report.user_latency_percentiles(99.0) != aggregate

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            _scheduler(n_users=0)
        with pytest.raises(ValueError):
            _scheduler(mode="priority")
        with pytest.raises(ValueError):
            _scheduler(weights=[1.0])
        with pytest.raises(ValueError):
            _scheduler(mode="weighted", weights=[1.0, 1.0, 1.0, 0.0])


class _GiveUpPipeline:
    """Passes the receive stream through, keeping every decoded frame, with
    a run of non-finite samples (longer than a cyclic prefix) in the data
    of the second frame on air."""

    def __init__(self, pipeline, position):
        self.pipeline = pipeline
        self.position = position
        self.frames = []

    def push(self, chunk):
        if self.position is not None:
            chunk = chunk.copy()
            chunk[:, self.position : self.position + 20] = np.nan
            self.position = None
        return self._keep(self.pipeline.push(chunk))

    def flush(self):
        return self._keep(self.pipeline.flush())

    def _keep(self, frames):
        self.frames.extend(frames)
        return frames


class TestBitErrorAccounting:
    def test_bit_errors_count_decoded_frames_only(self, monkeypatch):
        # UserStats.bit_errors sums the residual errors of decoded frames;
        # a given-up frame is a loss and adds no bit errors.
        sent = []
        original = scheduler_module.air_round

        def recording(*args, **kwargs):
            bursts = original(*args, **kwargs)
            sent.extend(air.burst.info_bits for air in bursts)
            return bursts

        monkeypatch.setattr(scheduler_module, "air_round", recording)
        scheduler = _scheduler(n_users=3, frames_per_user=2, snr_db=14.0, base_seed=5)
        recorder = _GiveUpPipeline(
            scheduler.pipeline, scheduler.frame_length * 7 // 4
        )
        scheduler.pipeline = recorder
        report = scheduler.run()

        frames = recorder.frames
        assert len(frames) == len(sent) == report.frames_served  # every frame detected
        assert [frame.ok for frame in frames].count(False) == 1
        decoded_errors = [
            frame.outcome.total_bit_errors(reference)
            for frame, reference in zip(frames, sent)
            if frame.ok
        ]
        assert any(decoded_errors)
        assert sum(stats.bit_errors for stats in report.users.values()) == sum(decoded_errors)
        assert report.frames_lost == 1 + sum(errors > 0 for errors in decoded_errors)


class TestPushGroups:
    def test_each_push_group_is_one_transmit_call(self, monkeypatch):
        calls = []
        original = MimoTransmitter.transmit

        def counted(self, stream_bits):
            calls.append(len(stream_bits))
            return original(self, stream_bits)

        monkeypatch.setattr(MimoTransmitter, "transmit", counted)
        served = 2 * scheduler_module.FRAMES_PER_PUSH + 1
        report = _scheduler(n_users=served, frames_per_user=1).run()
        assert report.frames_served == served
        # Two full groups of FRAMES_PER_PUSH frames, then the remainder.
        assert calls == [scheduler_module.FRAMES_PER_PUSH] * 2 + [1]

    @pytest.mark.parametrize("delay", [0, 13])
    @pytest.mark.parametrize("channel", ["ideal", "frequency_selective"])
    def test_every_frame_occupies_frame_length_plus_delay(self, monkeypatch, channel, delay):
        # The air clock counts frame_length + sample_delay per frame
        # without looking at the samples: each frame on air must be that long.
        lengths = []
        original = scheduler_module.air_round

        def recording(*args, **kwargs):
            bursts = original(*args, **kwargs)
            lengths.extend(air.samples.shape[1] for air in bursts)
            return bursts

        monkeypatch.setattr(scheduler_module, "air_round", recording)
        scheduler = _scheduler(
            n_users=2, channel=channel, impairment=ImpairmentSpec(sample_delay=delay)
        )
        report = scheduler.run()
        assert lengths == [scheduler.frame_length + delay] * report.frames_served
        # Every detection lands where the clock expects its frame.
        assert report.spurious_detections == 0
        if channel == "ideal":
            assert report.frames_delivered == report.frames_served
        frame_s = (scheduler.frame_length + delay) / scheduler.config.clock_hz
        assert report.air_time_s == pytest.approx(report.frames_served * frame_s)


class TestQueueingTheory:
    """The air clock against the M/D/1 queue it models.

    Eight Poisson users at total load ``rho`` share one server whose
    service time is one frame's air time ``D``.  Round-robin is work
    conserving and every frame takes the same time, so the mean sojourn
    time (queueing plus air time) over ``D`` is the Pollaczek–Khinchine
    value ``1 + rho / (2 (1 - rho))`` whatever the service order.
    """

    N_USERS = 8
    FRAMES_PER_USER = 500
    SEEDS = range(5)

    def _mean_sojourn(self, rho, seed):
        probe = DownlinkScheduler(n_users=self.N_USERS, frames_per_user=0, n_info_bits=48)
        air_s = probe.frame_length / probe.config.clock_hz
        slots, _ = DownlinkScheduler(
            n_users=self.N_USERS,
            frames_per_user=self.FRAMES_PER_USER,
            traffic=PoissonTraffic(rho / (self.N_USERS * air_s)),
            n_info_bits=48,
            base_seed=seed,
        ).plan()
        # Late in the run the users' fixed frame budgets thin the arrivals;
        # the first three quarters of the service order see the full load.
        kept = slots[: 3 * len(slots) // 4]
        return np.mean([(slot.done_s - slot.arrival_s) / air_s for slot in kept])

    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_mean_sojourn_matches_pollaczek_khinchine(self, rho):
        means = [self._mean_sojourn(rho, seed) for seed in self.SEEDS]
        standard_error = np.std(means, ddof=1) / np.sqrt(len(means))
        expected = 1.0 + rho / (2.0 * (1.0 - rho))
        assert abs(np.mean(means) - expected) < 4.0 * standard_error
