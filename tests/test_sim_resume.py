"""Crash/resume and concurrency tests for the store-backed sweep runner.

The scenarios the per-point result store exists for:

* a pooled sweep dies mid-grid — the re-run must load every committed
  point and simulate only the missing remainder, and the folded result
  must be bit-identical to an uninterrupted run;
* two runners share one store directory concurrently — shards must stay
  intact and a runner must not re-simulate points the other had already
  committed before it dispatched them.
"""

import threading
import time

import pytest

import repro.sim.runner as runner_module
from repro.sim import ResultStore, SweepRunner, SweepSpec
from repro.sim.engine import simulate_batch


def small_spec(**overrides) -> SweepSpec:
    fields = dict(
        snr_db=(6.0, 12.0, 18.0, 30.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=64,
        n_bursts=2,
        target_errors=None,
        base_seed=17,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def stats(result):
    return [
        (p.bit_errors, p.total_bits, p.frame_errors, p.n_bursts, p.decode_failures)
        for p in result.points
    ]


#: Module-level so the multiprocessing backend can pickle it by reference
#: (the pool is forked after the monkeypatch, so workers see this function).
def _fail_highest_snr_batch(task):
    if any(item["point"]["snr_db"] == 30.0 for item in task["items"]):
        # Give the other workers time to finish their points first, so the
        # crash reliably happens *mid-grid* — some points committed, some not.
        time.sleep(0.3)
        raise RuntimeError("injected worker crash")
    return simulate_batch(task)


class TestCrashResume:
    def test_interrupted_pooled_sweep_resumes_only_missing_points(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        store = ResultStore(tmp_path / "points")
        reference = SweepRunner(spec, n_workers=1, cache=None).run()

        # --- first attempt: a worker dies on the 30 dB point ---------------
        monkeypatch.setattr(
            "repro.sim.runner.simulate_batch", _fail_highest_snr_batch
        )
        with pytest.raises(RuntimeError, match="injected worker crash"):
            SweepRunner(
                spec, n_workers=2, batch_size=spec.n_bursts, cache=store
            ).run()
        monkeypatch.undo()

        committed = store.keys()
        keys_by_index = {
            point.index: point.content_key(spec) for point in spec.points()
        }
        missing = {
            index for index, key in keys_by_index.items() if key not in committed
        }
        # The crash landed mid-grid: the failing point is missing, at least
        # one other point had already been committed atomically.
        assert keys_by_index[3] in {keys_by_index[i] for i in missing}
        assert len(missing) < spec.n_points

        # --- resume: only the missing points are simulated -----------------
        simulated = []

        def counting(task):
            simulated.extend(item["point"]["index"] for item in task["items"])
            return simulate_batch(task)

        # (Serial queue here: the counting closure runs in-process, where a
        # forked pool would need a picklable module-level function.)
        monkeypatch.setattr("repro.sim.runner.simulate_batch", counting)
        resumed = SweepRunner(
            spec, n_workers=1, batch_size=spec.n_bursts, cache=store
        ).run()
        assert set(simulated) == missing
        assert resumed.n_bursts_simulated == len(missing) * spec.n_bursts
        assert not resumed.from_cache

        # --- the folded result is bit-identical to the uninterrupted run ---
        assert stats(resumed) == stats(reference)

        # A third run is a pure store read.
        monkeypatch.undo()
        warm = SweepRunner(spec, n_workers=1, cache=store).run()
        assert warm.from_cache
        assert warm.n_bursts_simulated == 0
        assert stats(warm) == stats(reference)


class TestFieldLevelCorruption:
    """Records that parse as JSON but cannot be a point result are re-simulated."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda record: record.pop("n_bursts"),
            lambda record: record.update(bit_errors="many"),
            lambda record: record.update(total_bits=None),
        ],
        ids=["missing-field", "non-numeric-field", "null-field"],
    )
    def test_bad_record_is_resimulated_and_recommitted(self, tmp_path, corrupt):
        spec = small_spec()
        store = ResultStore(tmp_path / "points")
        reference = SweepRunner(spec, n_workers=1, cache=store).run()
        keys = [point.content_key(spec) for point in spec.points()]
        for key in keys[:2]:
            record = store.get(key)
            corrupt(record)
            store.put(key, record)  # the newest record wins on read

        resumed = SweepRunner(spec, n_workers=1, cache=store).run()
        assert not resumed.from_cache
        assert resumed.n_bursts_simulated == 2 * spec.n_bursts
        assert stats(resumed) == stats(reference)
        # The re-simulated points were committed again as good records.
        for key, result in zip(keys[:2], reference.points):
            record = store.get(key)
            assert {name: record[name] for name in result.to_dict()} == result.to_dict()
        warm = SweepRunner(spec, n_workers=1, cache=store).run()
        assert warm.from_cache and warm.n_bursts_simulated == 0

    def test_record_without_decode_failures_loads_as_zero(self, tmp_path):
        spec = small_spec(snr_db=(30.0,))
        store = ResultStore(tmp_path / "points")
        key = spec.points()[0].content_key(spec)
        legacy = {
            "bit_errors": 3,
            "total_bits": 256,
            "frame_errors": 1,
            "n_bursts": 2,
            "early_stopped": False,
            "elapsed_s": 0.01,
            "point": spec.points()[0].to_dict(),
        }
        store.put(key, legacy)
        warm = SweepRunner(spec, n_workers=1, cache=store).run()
        assert warm.from_cache and warm.n_bursts_simulated == 0
        assert stats(warm) == [(3, 256, 1, 2, 0)]


class TestConcurrentRunners:
    def test_two_runners_share_one_store_without_corruption(
        self, tmp_path, monkeypatch
    ):
        # Runner A sweeps the full grid; once its first points are durable,
        # runner B starts on an overlapping subset.  B must adopt every
        # point A committed before B dispatched it, and the shared shards
        # must stay intact under the concurrent appends.
        spec_a = small_spec()
        spec_b = small_spec(snr_db=(6.0, 12.0, 24.0))
        store_dir = tmp_path / "points"
        simulated = {"A": [], "B": []}

        def counting(task):
            simulated[threading.current_thread().name].extend(
                (item["point"]["snr_db"], item["start_burst"]) for item in task["items"]
            )
            return simulate_batch(task)

        monkeypatch.setattr("repro.sim.runner.simulate_batch", counting)

        results = {}
        errors = []

        def run(name, spec):
            try:
                results[name] = SweepRunner(
                    spec, n_workers=1, batch_size=1, cache=ResultStore(store_dir)
                ).run()
            except BaseException as error:  # surface thread failures
                errors.append(error)

        thread_a = threading.Thread(target=run, args=("A", spec_a), name="A")
        thread_a.start()
        # Wait until A has durably committed its first two points (6 and
        # 12 dB — the serial queue works the grid in index order).
        probe = ResultStore(store_dir)
        shared_keys = [point.content_key(spec_a) for point in spec_a.points()[:2]]
        deadline = time.monotonic() + 30.0
        while not all(key in probe for key in shared_keys):
            assert time.monotonic() < deadline, "runner A never committed"
            assert not errors
            time.sleep(0.01)
        thread_b = threading.Thread(target=run, args=("B", spec_b), name="B")
        thread_b.start()
        thread_a.join(timeout=120)
        thread_b.join(timeout=120)
        assert not errors
        assert set(results) == {"A", "B"}

        # B adopted A's committed points instead of re-simulating them.
        b_snrs = {snr for snr, _ in simulated["B"]}
        assert 6.0 not in b_snrs
        assert 12.0 not in b_snrs
        assert 24.0 in b_snrs  # B's own non-overlapping point was simulated

        # Both results are bit-identical to clean independent runs.
        monkeypatch.undo()
        clean_a = SweepRunner(spec_a, n_workers=1, cache=None).run()
        clean_b = SweepRunner(spec_b, n_workers=1, cache=None).run()
        assert stats(results["A"]) == stats(clean_a)
        assert stats(results["B"]) == stats(clean_b)

        # No shard was corrupted: every record parses, the union of both
        # grids is present, and warm re-runs of either spec cost nothing.
        union_keys = {p.content_key(spec_a) for p in spec_a.points()} | {
            p.content_key(spec_b) for p in spec_b.points()
        }
        assert union_keys <= probe.keys()
        for key in union_keys:
            assert isinstance(probe.get(key), dict)
        warm_a = SweepRunner(spec_a, n_workers=1, cache=ResultStore(store_dir)).run()
        warm_b = SweepRunner(spec_b, n_workers=1, cache=ResultStore(store_dir)).run()
        assert warm_a.from_cache and warm_a.n_bursts_simulated == 0
        assert warm_b.from_cache and warm_b.n_bursts_simulated == 0
