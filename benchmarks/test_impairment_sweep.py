"""Front-end impairment grid through the batched sweep engine.

The paper's headline is a *fixed-point* baseband that survives real
front-end conditions; PR 4 made those conditions (CFO, timing, IQ
imbalance, word lengths) first-class grid axes of ``repro.sim``.  This
benchmark drives the acceptance grid — CFO x word length x SNR, i.e.
``ImpairmentSpec`` entries Cartesian with the SNR axis — through a real
worker pool and checks the engine's contracts on the new axes:

* the pooled run and every (n_workers, batch_size) variant report
  bit-identical statistics (physics is a pure function of the spec);
* an identical re-run is served from the per-point result store without
  simulating a single burst;
* the point keys include ``ENGINE_VERSION`` (bumped to 2 with the axis),
  so a record written by an older engine is demonstrably never served.
"""

import repro.sim.spec as spec_module
from repro.sim import ENGINE_VERSION, ImpairmentSpec, ResultStore, SweepRunner, SweepSpec

CFO_VALUES = (5e-4, 2e-3)
WORD_LENGTHS = (8, 16)
SNR_POINTS_DB = (10.0, 18.0, 26.0)
N_INFO_BITS = 96
N_BURSTS = 2
BASE_SEED = 77


def _impairment_grid():
    return tuple(
        ImpairmentSpec.quantized(word_length, cfo_normalized=cfo)
        for word_length in WORD_LENGTHS
        for cfo in CFO_VALUES
    )


def _grid_spec() -> SweepSpec:
    return SweepSpec(
        snr_db=SNR_POINTS_DB,
        modulations=("qpsk",),
        channels=("flat_rayleigh",),
        impairments=_impairment_grid(),
        n_info_bits=N_INFO_BITS,
        n_bursts=N_BURSTS,
        target_errors=None,
        base_seed=BASE_SEED,
    )


def _stats(result):
    return [
        (p.bit_errors, p.total_bits, p.frame_errors, p.n_bursts)
        for p in result.points
    ]


def test_impairment_grid_runs_pooled_and_caches(table_printer, tmp_path):
    spec = _grid_spec()
    assert spec.n_points == len(CFO_VALUES) * len(WORD_LENGTHS) * len(SNR_POINTS_DB)

    result = SweepRunner(spec, n_workers=2, batch_size=1, cache=tmp_path).run()
    assert not result.from_cache
    assert result.n_bursts_simulated == spec.n_points * N_BURSTS

    table_printer(
        "Front-end impairment grid (QPSK, rate 1/2, flat Rayleigh; pool of 2)",
        ["word bits", "CFO (cyc/sa)", *(f"BER @ {snr:.0f} dB" for snr in SNR_POINTS_DB)],
        [
            (
                word_length,
                cfo,
                *(
                    f"{result.ber_curve(impairment=ImpairmentSpec.quantized(word_length, cfo_normalized=cfo))[snr]:.4f}"
                    for snr in SNR_POINTS_DB
                ),
            )
            for word_length in WORD_LENGTHS
            for cfo in CFO_VALUES
        ],
    )

    # Identical spec -> cache hit, zero bursts simulated.
    again = SweepRunner(spec, n_workers=2, batch_size=1, cache=tmp_path).run()
    assert again.from_cache
    assert again.n_bursts_simulated == 0
    assert _stats(again) == _stats(result)


def test_impairment_statistics_independent_of_runner_knobs(tmp_path):
    spec = _grid_spec()
    reference = SweepRunner(spec, n_workers=2, batch_size=1, cache=False).run()
    for n_workers, batch_size in ((1, 1), (1, 2), (3, 2)):
        variant = SweepRunner(
            spec, n_workers=n_workers, batch_size=batch_size, cache=False
        ).run()
        assert _stats(variant) == _stats(reference), (n_workers, batch_size)


def test_old_engine_version_cache_entry_is_not_reused(tmp_path, monkeypatch):
    spec = _grid_spec().subset(
        snr_db=(26.0,), impairments=(ImpairmentSpec.quantized(16),)
    )
    store = ResultStore(tmp_path)
    (point,) = spec.points()

    # The impairment axes shipped with ENGINE_VERSION 2; plant a poisoned
    # record under the key an engine-version-1 runner would have committed.
    assert ENGINE_VERSION >= 2
    monkeypatch.setattr(spec_module, "ENGINE_VERSION", ENGINE_VERSION - 1)
    stale_key = point.content_key(spec)
    monkeypatch.undo()
    assert stale_key != point.content_key(spec)
    store.put(
        {
            stale_key: {
                "bit_errors": 10**9,
                "total_bits": 10**9,
                "frame_errors": N_BURSTS,
                "n_bursts": N_BURSTS,
                "early_stopped": False,
                "decode_failures": 0,
                "point": point.to_dict(),
            }
        }
    )

    fresh = SweepRunner(spec, n_workers=1, cache=store).run()
    # The stale record is never served: the point is simulated afresh...
    assert not fresh.from_cache
    assert fresh.n_bursts_simulated == N_BURSTS
    assert all(p.bit_errors < 10**9 for p in fresh.points)
    # ...and the re-run is served from the current version's record.
    again = SweepRunner(spec, n_workers=1, cache=store).run()
    assert again.from_cache
    assert _stats(again) == _stats(fresh)
