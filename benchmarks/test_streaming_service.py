"""Streaming multi-user downlink service — sustained rate and latency.

The paper's headline is a rate ("1 Gbps baseband"), but its motivating
scenario is a *service* ("high speed internet access anywhere and
anytime").  This benchmark runs that service end to end on the synthesised
4x4, 64-point build: N concurrent user streams multiplexed by the
round-robin downlink scheduler, every served frame crossing a fresh flat
Rayleigh realisation into the rolling-buffer streaming receiver, and
asserts the two service-level acceptance thresholds — a sustained
frames/sec floor through the software pipeline and a p99 enqueue→decode
latency ceiling on the simulated air interface.

The population size is env-scaled: tier-1 runs a few hundred users, while
``make bench-stream`` sets ``REPRO_STREAM_USERS=1000`` to demonstrate one
process serving >= 1000 concurrent user streams and to print the per-user
latency-percentile table.
"""

import os

import pytest

from repro.stream import DownlinkScheduler, PoissonTraffic

#: Concurrent user streams (``make bench-stream`` raises this to 1000).
N_USERS = int(os.environ.get("REPRO_STREAM_USERS", "200"))
FRAMES_PER_USER = 1
PER_USER_RATE_FPS = 100.0
SNR_DB = 30.0

#: Software pipeline must sustain at least this many frames/sec end to end
#: (transmit + channel + detection + full burst decode; measured ~15-25 on
#: a laptop-class core, floored conservatively for loaded CI hosts).
MIN_SUSTAINED_FPS = 3.0

#: p99 enqueue→decode latency ceiling in *simulated* time.  At ~21% offered
#: load the queueing delay is a few frame durations (10.56 us each); 1 ms
#: leaves two orders of magnitude of headroom before the service degrades.
MAX_P99_LATENCY_S = 1e-3


@pytest.fixture(scope="module")
def service_report():
    scheduler = DownlinkScheduler(
        n_users=N_USERS,
        frames_per_user=FRAMES_PER_USER,
        traffic=PoissonTraffic(PER_USER_RATE_FPS),
        mode="round_robin",
        snr_db=SNR_DB,
        base_seed=0,
    )
    return scheduler, scheduler.run()


@pytest.mark.benchmark(group="streaming-service")
def test_streaming_service_levels(service_report, table_printer):
    scheduler, report = service_report

    frame_us = 1e6 * scheduler.frame_length / scheduler.sample_rate_hz
    table_printer(
        f"streaming downlink service — {report.n_users} concurrent user streams "
        "(4x4, 64-pt, 16-QAM r1/2, flat Rayleigh @ 30 dB)",
        ["metric", "value"],
        [
            ["frames served", report.frames_served],
            ["frames delivered error-free", report.frames_delivered],
            ["loss rate", f"{100 * report.loss_rate:.2f} %"],
            ["spurious detections", report.spurious_detections],
            ["frame air time", f"{frame_us:.2f} us"],
            ["simulated air occupancy", f"{report.air_time_s * 1e3:.2f} ms"],
            ["goodput over the air", f"{report.goodput_bps / 1e6:.0f} Mbit/s"],
            ["sustained software rate", f"{report.sustained_fps:.1f} frames/s"],
            ["wall-clock", f"{report.wall_time_s:.1f} s"],
        ],
    )

    aggregate = report.latency
    rows = [
        [
            "all frames",
            f"{aggregate.p50 * 1e6:.2f}",
            f"{aggregate.p95 * 1e6:.2f}",
            f"{aggregate.p99 * 1e6:.2f}",
            f"{aggregate.worst * 1e6:.2f}",
        ]
    ]
    # A user's own percentile needs at least two samples; with one frame
    # per user it is just that frame's latency and the spread rows would
    # repeat the aggregate row.
    multi_frame_users = any(
        len(stats.latency_samples) >= 2 for stats in report.users.values()
    )
    for quantile in (50.0, 95.0, 99.0) if multi_frame_users else ():
        spread = report.user_latency_percentiles(quantile)
        rows.append(
            [
                f"per-user p{quantile:.0f} across users",
                f"{spread.p50 * 1e6:.2f}",
                f"{spread.p95 * 1e6:.2f}",
                f"{spread.p99 * 1e6:.2f}",
                f"{spread.worst * 1e6:.2f}",
            ]
        )
    table_printer(
        "enqueue->decode latency (simulated time, us)",
        ["distribution", "p50", "p95", "p99", "worst"],
        rows,
    )
    if not multi_frame_users:
        print(
            f"(per-user percentile rows omitted: {FRAMES_PER_USER} frame per user "
            "gives each user a single latency sample, so they would repeat the "
            "aggregate row)"
        )

    assert report.frames_served == N_USERS * FRAMES_PER_USER
    assert report.frames_delivered + report.frames_lost == report.frames_served
    # The service-level acceptance thresholds.
    assert report.sustained_fps >= MIN_SUSTAINED_FPS
    assert aggregate.p99 <= MAX_P99_LATENCY_S
    # The lock is genuinely selective: no detections that match nothing.
    assert report.spurious_detections == 0
