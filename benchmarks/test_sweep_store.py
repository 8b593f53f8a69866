"""Per-point result store — warm re-runs and cross-sweep sharing gates.

The sharded :class:`~repro.sim.store.ResultStore` replaced the per-spec
JSON cache so that *points*, not whole sweeps, are the unit of reuse.  Two
gates keep that property honest:

* a repeated sweep must be a pure store read — zero bursts simulated,
  sub-second wall clock;
* two overlapping grids sharing one store must simulate their
  intersection exactly once, cutting the second sweep's burst count by at
  least 30% versus the old per-spec behaviour (where any spec change —
  even adding one SNR point — re-simulated everything).
"""

import time

from repro.sim import ResultStore, SweepRunner, SweepSpec
from repro.sim.engine import simulate_batch

N_INFO_BITS = 120
N_BURSTS = 10
TARGET_ERRORS = 60
BASE_SEED = 4321

#: Grid A covers the waterfall mid-band; grid B extends it down into the
#: error floor while keeping the three 18-22 dB points — the costliest
#: cells of grid B, which a per-spec cache would force it to re-simulate
#: from scratch (any spec difference used to mean a cache miss for the
#: whole grid).
GRID_A_DB = (12.0, 14.0, 16.0, 18.0, 20.0, 22.0)
GRID_B_DB = (6.0, 8.0, 10.0, 18.0, 20.0, 22.0)
SHARED_DB = sorted(set(GRID_A_DB) & set(GRID_B_DB))


def _spec(snr_grid) -> SweepSpec:
    return SweepSpec(
        snr_db=snr_grid,
        modulations=("16qam",),
        channels=("flat_rayleigh",),
        n_info_bits=N_INFO_BITS,
        n_bursts=N_BURSTS,
        target_errors=TARGET_ERRORS,
        base_seed=BASE_SEED,
    )


def _run(snr_grid, cache) -> "SweepResult":
    return SweepRunner(_spec(snr_grid), n_workers=1, batch_size=2, cache=cache).run()


def test_warm_rerun_is_a_pure_store_read(table_printer, tmp_path):
    store = ResultStore(tmp_path / "points")
    first = _run(GRID_A_DB, store)
    assert not first.from_cache

    warm = _run(GRID_A_DB, store)
    start = time.perf_counter()
    again = _run(GRID_A_DB, store)
    warm_elapsed = time.perf_counter() - start

    table_printer(
        "Warm sweep re-run from the per-point store",
        ["run", "from store", "bursts simulated", "wall clock"],
        [
            ("first", first.from_cache, first.n_bursts_simulated, f"{first.elapsed_s:.2f} s"),
            ("warm", warm.from_cache, warm.n_bursts_simulated, f"{warm_elapsed * 1e3:.1f} ms"),
        ],
    )
    # Gate: the warm re-run simulates zero bursts and completes in under a
    # second — every point is one record read.
    assert warm.from_cache and again.from_cache
    assert warm.n_bursts_simulated == 0
    assert warm_elapsed < 1.0
    assert [p.bit_errors for p in warm.points] == [p.bit_errors for p in first.points]


def test_overlapping_grids_share_their_intersection(table_printer, tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "points")
    run_a = _run(GRID_A_DB, store)

    # Old per-spec behaviour: grid B is a different spec, so nothing is
    # reused and the full grid simulates.
    fresh_b = _run(GRID_B_DB, None)

    simulated_snrs = set()

    def counting(unit):
        simulated_snrs.update(item.point.snr_db for item in unit.items)
        return simulate_batch(unit)

    monkeypatch.setattr("repro.sim.runner.simulate_batch", counting)
    shared_b = _run(GRID_B_DB, store)
    monkeypatch.undo()

    reduction = 1.0 - shared_b.n_bursts_simulated / fresh_b.n_bursts_simulated
    table_printer(
        f"Overlapping grids sharing one store — {len(SHARED_DB)} of "
        f"{len(GRID_B_DB)} points shared (burst reduction {reduction:.0%})",
        ["sweep", "bursts simulated", "points simulated"],
        [
            ("grid A (cold)", run_a.n_bursts_simulated, len(GRID_A_DB)),
            ("grid B, per-spec cache (old)", fresh_b.n_bursts_simulated, len(GRID_B_DB)),
            ("grid B, shared store", shared_b.n_bursts_simulated, len(simulated_snrs)),
        ],
    )

    # Gate: the intersection is simulated exactly once — grid B touches
    # only its non-overlapping points.
    assert simulated_snrs == set(GRID_B_DB) - set(GRID_A_DB)
    # Gate: >= 30% fewer bursts than the old per-spec cache behaviour.
    assert reduction >= 0.30
    # Shared points carry identical statistics in both sweeps.
    curve_a = run_a.ber_curve(modulation="16qam")
    curve_b = shared_b.ber_curve(modulation="16qam")
    for snr in SHARED_DB:
        assert curve_a[snr] == curve_b[snr]
    assert [p.bit_errors for p in shared_b.points] == [
        p.bit_errors for p in fresh_b.points
    ]
