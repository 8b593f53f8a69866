#!/usr/bin/env python
"""Resumable sweeps and adaptive refinement over the per-point result store.

Demonstrates: the scale-out workflow behind every BER figure in the
reproduction.  Grid points are content-addressed records in an
append-only result store (:class:`repro.sim.ResultStore`): one JSONL log,
to which the runner commits the points that finish in each drain step
with one ``write`` + ``fsync``, so

1. an *interrupted* sweep resumes where it stopped — only the missing
   points simulate (simulated here by running a partial grid first);
2. an *overlapping* grid reuses every point it shares with earlier sweeps
   (the classic "extend the waterfall by two SNR points" edit costs two
   points, not a full re-run);
3. *adaptive refinement* (:meth:`repro.sim.SweepRunner.run_adaptive`)
   spends an extra burst budget where the BER confidence intervals are
   widest, extending each point's deterministic burst stream.

Run from a clean checkout with::

    PYTHONPATH=src python examples/resumable_sweep.py [--bursts N] [--bits N]

(The PYTHONPATH prefix is optional; the script falls back to the in-tree
``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro.sim import ResultStore, SweepRunner, SweepSpec

SNR_POINTS_DB = (6.0, 10.0, 14.0, 18.0, 22.0, 26.0)


def make_spec(snr_db, n_bursts: int, n_info_bits: int) -> SweepSpec:
    return SweepSpec(
        snr_db=snr_db,
        modulations=("qpsk",),
        channels=("flat_rayleigh",),
        stream_counts=(4,),
        n_info_bits=n_info_bits,
        n_bursts=n_bursts,
        target_errors=None,
        base_seed=23,
    )


def describe(title: str, result) -> None:
    source = "store" if result.from_cache else "simulation"
    print(
        f"{title}: {result.n_bursts_simulated} bursts simulated "
        f"[{source}, {result.elapsed_s:.2f} s]"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bursts", type=int, default=6, help="bursts per point")
    parser.add_argument("--bits", type=int, default=96, help="info bits per stream")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "points")

        # --- 1. an "interrupted" sweep: only half the grid finished -------
        partial = make_spec(SNR_POINTS_DB[:3], args.bursts, args.bits)
        SweepRunner(partial, n_workers=1, cache=store).run()
        print(f"interrupted sweep committed {len(store)} of "
              f"{len(SNR_POINTS_DB)} points to the store's {store.log_path.name}")

        full = make_spec(SNR_POINTS_DB, args.bursts, args.bits)
        resumed = SweepRunner(full, n_workers=1, cache=store).run()
        describe("resume of the full grid", resumed)

        # --- 2. a warm re-run is a pure store read ------------------------
        warm = SweepRunner(full, n_workers=1, cache=store).run()
        describe("warm re-run", warm)

        # --- 3. adaptive refinement: spend bursts where CIs are widest ----
        refined = SweepRunner(full, n_workers=1, cache=store).run_adaptive(
            extra_bursts=4 * len(SNR_POINTS_DB), rounds=4
        )
        describe("adaptive refinement", refined)

        print()
        print("SNR (dB) |      BER | bursts | 95% Wilson interval")
        print("---------+----------+--------+--------------------")
        for point in refined.points:
            low, high = point.ber_interval()
            print(
                f"{point.point.snr_db:8.1f} | {point.bit_error_rate:8.5f} "
                f"| {point.n_bursts:6d} | [{low:.5f}, {high:.5f}]"
            )


if __name__ == "__main__":
    main()
