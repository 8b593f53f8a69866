#!/usr/bin/env python
"""Domain scenario: one base station, thousands of subscriber streams.

Reproduces: the paper's system-level pitch — a baseband able to serve
"high speed internet access anywhere and anytime" — as an actual
multi-user downlink experiment: N per-user traffic streams are multiplexed
by the :class:`~repro.stream.scheduler.DownlinkScheduler` over one
simulated 4x4 MIMO-OFDM air interface, every served frame crosses a fresh
fading realisation, and the receive side runs the rolling-buffer streaming
pipeline.  The run prints the numbers the paper's headline implies but
never measures: sustained frames/sec through the software receiver,
goodput over the air, and the per-user enqueue→decode latency-percentile
table.

Run from a clean checkout with::

    PYTHONPATH=src python examples/multiuser_load.py [--users N] [--frames K]
        [--rate FPS] [--snr DB] [--mode round_robin|weighted]

The default 1000 users complete in a couple of minutes; use ``--users 40``
for a quick look.  (The PYTHONPATH prefix is optional; the script falls
back to the in-tree ``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import argparse

import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro.stream import DownlinkScheduler, PoissonTraffic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=1000, help="concurrent user streams")
    parser.add_argument("--frames", type=int, default=1, help="frames per user")
    parser.add_argument("--rate", type=float, default=200.0, help="per-user offered frames/sec")
    parser.add_argument("--snr", type=float, default=30.0, help="channel SNR in dB")
    parser.add_argument(
        "--mode",
        choices=("round_robin", "weighted"),
        default="round_robin",
        help="scheduling discipline",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed of the run")
    args = parser.parse_args()

    scheduler = DownlinkScheduler(
        n_users=args.users,
        frames_per_user=args.frames,
        traffic=PoissonTraffic(args.rate),
        mode=args.mode,
        snr_db=args.snr,
        base_seed=args.seed,
    )
    frame_duration_s = scheduler.frame_length / scheduler.config.clock_hz
    capacity_fps = 1.0 / frame_duration_s
    offered_fps = args.users * args.rate
    print(f"users                 : {args.users} ({args.mode} scheduling)")
    print(f"frames per user       : {args.frames} (Poisson @ {args.rate:.0f} fps each)")
    print(f"frame                 : {scheduler.frame_length} samples, "
          f"{frame_duration_s * 1e6:.2f} us on air")
    print(f"air capacity          : {capacity_fps / 1e3:.1f} kframes/s; offered "
          f"{offered_fps / 1e3:.1f} kframes/s "
          f"({100 * offered_fps / capacity_fps:.0f}% load)")

    report = scheduler.run()

    print(f"\nframes served         : {report.frames_served} "
          f"(of {report.frames_offered} offered)")
    print(f"frames delivered      : {report.frames_delivered} error-free; "
          f"lost {report.frames_lost} "
          f"({100 * report.loss_rate:.1f}%), "
          f"{report.spurious_detections} spurious detections")
    print(f"air time              : {report.air_time_s * 1e3:.2f} ms simulated")
    print(f"goodput               : {report.goodput_bps / 1e6:.0f} Mbit/s over the air")
    print(f"sustained rate        : {report.sustained_fps:.1f} frames/s through the "
          f"software receiver ({report.wall_time_s:.1f} s wall clock)")

    aggregate = report.latency
    print("\nenqueue->decode latency, all delivered frames (simulated time):")
    print("  p50        p95        p99        worst")
    print(f"  {aggregate.p50 * 1e6:8.2f} us {aggregate.p95 * 1e6:8.2f} us "
          f"{aggregate.p99 * 1e6:8.2f} us {aggregate.worst * 1e6:8.2f} us")

    print("\nper-user latency percentiles across the population (us):")
    print("  quantile   typical user (p50)   p95 of users   worst user")
    for quantile in (50.0, 95.0, 99.0):
        spread = report.user_latency_percentiles(quantile)
        print(f"  p{quantile:<8.0f} {spread.p50 * 1e6:16.2f}   "
              f"{spread.p95 * 1e6:12.2f}   {spread.worst * 1e6:10.2f}")


if __name__ == "__main__":
    main()
