"""Sweep-engine speedup — batched ``repro.sim`` vs the serial burst loop.

The ROADMAP's scale goal needs BER grids to be cheap.  This benchmark runs
the same SNR grid twice over identical physics:

* the *serial baseline* — the same spec with early stopping off
  (``target_errors=None``), running every burst of every point;
* the *engine* — :class:`repro.sim.SweepRunner` with early stopping, which
  abandons each grid point as soon as its bit-error target is met.

On the error-rich half of a waterfall the target is hit within a few
bursts, so the engine simulates a fraction of the bursts for a BER estimate
of the same statistical quality (accuracy follows the error *count*).  A
second identical sweep must be served from the JSON cache without
simulating a single burst.

This is a scaled-down tier-1-friendly version of the acceptance sweep
(10 SNR points x 200 bursts/point), which on this grid shape reaches far
larger ratios; ``docs/simulation.md`` shows the full-scale command.
"""

import time
from dataclasses import replace

from repro.sim import SweepRunner, SweepSpec

SNR_POINTS_DB = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0)
N_INFO_BITS = 120
N_BURSTS = 12
TARGET_ERRORS = 60
BASE_SEED = 1234


SPEC = SweepSpec(
    snr_db=SNR_POINTS_DB,
    modulations=("16qam",),
    channels=("flat_rayleigh",),
    n_info_bits=N_INFO_BITS,
    n_bursts=N_BURSTS,
    target_errors=TARGET_ERRORS,
    base_seed=BASE_SEED,
)


def _engine_sweep(cache) -> "SweepRunner":
    return SweepRunner(SPEC, n_workers=1, batch_size=2, cache=cache).run()


def _serial_baseline() -> dict:
    spec = replace(SPEC, target_errors=None)
    return SweepRunner(spec, n_workers=1, cache=False).run().ber_curve(modulation="16qam")


def test_engine_early_stopping_beats_serial_loop(table_printer, tmp_path):
    serial_start = time.perf_counter()
    serial_curve = _serial_baseline()
    serial_elapsed = time.perf_counter() - serial_start

    result = _engine_sweep(tmp_path)
    engine_curve = result.ber_curve(modulation="16qam")

    speedup = serial_elapsed / result.elapsed_s
    table_printer(
        f"Sweep engine vs serial loop — {len(SNR_POINTS_DB)} SNR points, "
        f"{N_BURSTS} bursts/point budget (speedup {speedup:.1f}x)",
        ["SNR (dB)", "serial BER", "engine BER", "engine bursts"],
        [
            (
                snr,
                f"{serial_curve[snr]:.4f}",
                f"{engine_curve[snr]:.4f}",
                next(p.n_bursts for p in result.points if p.point.snr_db == snr),
            )
            for snr in SNR_POINTS_DB
        ],
    )

    # The serial loop always runs the full budget; early stopping must cut
    # the simulated burst count substantially.  The wall-clock ratio is
    # printed above but deliberately not asserted: single-run timings on a
    # loaded CI host are too noisy, and the burst-count check is the
    # deterministic form of the same claim.
    assert result.n_bursts_simulated < len(SNR_POINTS_DB) * N_BURSTS / 2
    # Same qualitative physics: error-rich at the bottom of the grid.
    assert engine_curve[SNR_POINTS_DB[0]] > 0.1
    assert serial_curve[SNR_POINTS_DB[0]] > 0.1


def test_repeated_sweep_is_served_from_cache(table_printer, tmp_path):
    first = _engine_sweep(tmp_path)
    assert not first.from_cache

    cached = _engine_sweep(tmp_path)
    start = time.perf_counter()
    again = _engine_sweep(tmp_path)
    cached_elapsed = time.perf_counter() - start
    table_printer(
        "Cached sweep re-run",
        ["run", "from cache", "bursts simulated", "wall clock"],
        [
            ("first", first.from_cache, first.n_bursts_simulated, f"{first.elapsed_s:.2f} s"),
            ("second", cached.from_cache, cached.n_bursts_simulated, f"{cached_elapsed * 1e3:.1f} ms"),
        ],
    )
    assert cached.from_cache
    assert again.from_cache
    assert cached.n_bursts_simulated == 0
    # The acceptance criterion: an identical re-run completes in under a
    # second without simulating a burst.
    assert cached_elapsed < 1.0
    assert [p.bit_errors for p in cached.points] == [p.bit_errors for p in first.points]
