"""Crash/resume and concurrency tests for the store-backed sweep runner.

The scenarios the per-point result store exists for:

* a pooled sweep dies mid-grid — the re-run must load every committed
  point and simulate only the missing remainder, and the folded result
  must be bit-identical to an uninterrupted run;
* two runners share one store directory concurrently — the log must stay
  intact, a runner must not re-simulate points the other had already
  committed before its resume read, and a point both simulate is
  committed twice with one payload;
* a record holds only the six counts its reader reads, a record whose
  counts cannot be a point result is simulated again, records of earlier
  versions (which held more) keep resuming, the runner commits once per
  drain step, not once per point, and reads the store once per drain.
"""

import json
import os
import threading
import time
from collections import Counter

import pytest

import repro.sim.runner as runner_module
from repro.sim import ResultStore, SweepRunner, SweepSpec
from repro.sim.engine import simulate_batch


#: The six counts of a point result a store record holds.
RECORD_FIELDS = (
    "bit_errors",
    "total_bits",
    "frame_errors",
    "n_bursts",
    "early_stopped",
    "decode_failures",
)


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
def _fail_highest_snr_batch(unit):
    if any(item.point.snr_db == 30.0 for item in unit.items):
        # Give the other workers time to finish their points first, so the
        # crash reliably happens *mid-grid* — some points committed, some not.
        time.sleep(0.3)
        raise RuntimeError("injected worker crash")
    return simulate_batch(unit)


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

        def counting(unit):
            simulated.extend(item.point.index for item in unit.items)
            return simulate_batch(unit)

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
            lambda record: record.update(bit_errors=2.75),
            lambda record: record.update(frame_errors=False),
            lambda record: record.update(early_stopped="no"),
            lambda record: record.update(early_stopped=0),
            lambda record: record.update(decode_failures=-1),
            lambda record: record.update(bit_errors=record["total_bits"] + 1),
            lambda record: record.update(total_bits=record["total_bits"] + 1),
            lambda record: record.update(frame_errors=record["n_bursts"] + 1),
            lambda record: record.update(decode_failures=record["frame_errors"] + 1),
        ],
        ids=[
            "missing-field",
            "non-numeric-field",
            "null-field",
            "fractional-count",
            "bool-count",
            "string-flag",
            "int-flag",
            "negative-count",
            "more-errors-than-bits",
            "bits-off-the-burst-budget",
            "more-frame-errors-than-bursts",
            "more-decode-failures-than-frame-errors",
        ],
    )
    def test_bad_record_is_resimulated_and_recommitted(self, tmp_path, corrupt):
        spec = small_spec()
        store = ResultStore(tmp_path / "points")
        reference = SweepRunner(spec, n_workers=1, cache=store).run()
        keys = [point.content_key(spec) for point in spec.points()]
        for key in keys[:2]:
            record = store.get(key)
            corrupt(record)
            store.put({key: record})  # the newest record wins on read

        resumed = SweepRunner(spec, n_workers=1, cache=store).run()
        assert not resumed.from_cache
        assert resumed.n_bursts_simulated == 2 * spec.n_bursts
        assert stats(resumed) == stats(reference)
        # The re-simulated points were committed again as good records.
        for key, result in zip(keys[:2], reference.points):
            assert store.get(key) == {name: getattr(result, name) for name in RECORD_FIELDS}
        warm = SweepRunner(spec, n_workers=1, cache=store).run()
        assert warm.from_cache and warm.n_bursts_simulated == 0

    def test_record_without_decode_failures_is_resimulated(self, tmp_path):
        # Every record of this engine version carries decode_failures, so
        # one without it is corrupt: re-simulated and committed again.
        spec = small_spec(snr_db=(30.0,))
        store = ResultStore(tmp_path / "points")
        key = spec.points()[0].content_key(spec)
        reference = SweepRunner(spec, n_workers=1, cache=None).run()
        record = {**reference.points[0].to_dict(), "elapsed_s": 0.01}
        del record["decode_failures"]
        store.put({key: record})
        resumed = SweepRunner(spec, n_workers=1, cache=store).run()
        assert not resumed.from_cache
        assert resumed.n_bursts_simulated == spec.n_bursts
        assert stats(resumed) == stats(reference)
        assert store.get(key)["decode_failures"] == reference.points[0].decode_failures
        warm = SweepRunner(spec, n_workers=1, cache=store).run()
        assert warm.from_cache and warm.n_bursts_simulated == 0

    def test_adaptive_run_resimulates_a_record_with_more_errors_than_bits(self, tmp_path):
        # Loaded as it stands, the record would make the refinement's
        # Wilson interval raise ConfigurationError.
        spec = small_spec()
        store = ResultStore(tmp_path / "points")
        SweepRunner(spec, n_workers=1, cache=store).run()
        key = spec.points()[0].content_key(spec)
        record = store.get(key)
        store.put({key: {**record, "bit_errors": record["total_bits"] + 5}})
        refined = SweepRunner(spec, n_workers=1, cache=store).run_adaptive(4, rounds=2)
        clean = SweepRunner(spec, n_workers=1, cache=None).run_adaptive(4, rounds=2)
        assert stats(refined) == stats(clean)
        assert refined.n_bursts_simulated > 0


class TestOneReadPerDrain:
    """The runner reads the store once per drain, with one ``get_many``."""

    @staticmethod
    def _count_reads(monkeypatch):
        calls = Counter()
        for name in ("get", "get_many"):
            real = getattr(ResultStore, name)

            def counting(self, *args, _name=name, _real=real):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(ResultStore, name, counting)
        return calls

    def test_cold_and_warm_runs_read_once(self, tmp_path, monkeypatch):
        spec = small_spec(detectors=("zf", "mmse"))
        calls = self._count_reads(monkeypatch)
        cold = SweepRunner(spec, n_workers=1, batch_size=1, cache=ResultStore(tmp_path)).run()
        assert cold.n_bursts_simulated > 0
        assert calls == {"get_many": 1}
        calls.clear()
        warm = SweepRunner(spec, n_workers=1, cache=ResultStore(tmp_path)).run()
        assert warm.from_cache
        assert calls == {"get_many": 1}

    def test_adaptive_run_reads_once_per_round(self, tmp_path, monkeypatch):
        spec = small_spec()
        calls = self._count_reads(monkeypatch)
        refined = SweepRunner(spec, n_workers=1, cache=ResultStore(tmp_path)).run_adaptive(
            8, rounds=2
        )
        assert refined.n_bursts_simulated > 0
        assert calls["get"] == 0
        assert 1 <= calls["get_many"] <= 3


class TestConcurrentRunners:
    def test_two_runners_share_one_store_without_corruption(
        self, tmp_path, monkeypatch
    ):
        # Runner A sweeps the full grid; once its first points are durable,
        # runner B starts on an overlapping subset.  B must load every
        # point A committed before B's resume read, and the shared log
        # must stay intact under the concurrent appends.
        spec_a = small_spec()
        spec_b = small_spec(snr_db=(6.0, 12.0, 24.0))
        store_dir = tmp_path / "points"
        simulated = {"A": [], "B": []}

        def counting(unit):
            simulated[threading.current_thread().name].extend(
                (item.point.snr_db, item.start_burst) for item in unit.items
            )
            return simulate_batch(unit)

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

        # B loaded A's committed points at its resume read instead of
        # re-simulating them.
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

        # The log was not corrupted: every record parses, the union of both
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

    def test_runners_that_start_together_commit_identical_duplicates(
        self, tmp_path, monkeypatch
    ):
        # Both runners finish their resume read before either commits, so
        # both simulate the points their grids share and each commits them.
        spec_a = small_spec()
        spec_b = small_spec(snr_db=(6.0, 12.0, 24.0))
        store_dir = tmp_path / "points"
        both_read = threading.Barrier(2)
        real_get_many = ResultStore.get_many

        def get_many_then_wait(self, keys):
            records = real_get_many(self, keys)
            both_read.wait(timeout=30)
            return records

        monkeypatch.setattr(ResultStore, "get_many", get_many_then_wait)
        results, errors = {}, []

        def run(name, spec):
            try:
                results[name] = SweepRunner(
                    spec, n_workers=1, batch_size=1, cache=ResultStore(store_dir)
                ).run()
            except BaseException as error:  # surface thread failures
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(name, spec))
            for name, spec in (("A", spec_a), ("B", spec_b))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors
        assert set(results) == {"A", "B"}
        monkeypatch.undo()

        # No torn line, and every record of a key carries one payload.
        raw = ResultStore(store_dir).log_path.read_bytes()
        assert raw.endswith(b"\n")
        payloads = {}
        for line in raw.splitlines():
            record = json.loads(line)
            payloads.setdefault(record["key"], []).append(record["payload"])
        shared = {p.content_key(spec_a) for p in spec_a.points()} & {
            p.content_key(spec_b) for p in spec_b.points()
        }
        assert len(shared) == 2
        assert all(len(payloads[key]) == 2 for key in shared)
        for records in payloads.values():
            assert all(record == records[0] for record in records)

        # Both results are bit-identical to runs without a store.
        assert stats(results["A"]) == stats(SweepRunner(spec_a, n_workers=1, cache=None).run())
        assert stats(results["B"]) == stats(SweepRunner(spec_b, n_workers=1, cache=None).run())


class TestEarlierRecordFormat:
    def test_record_with_point_and_elapsed_time_resumes_without_simulating(self, tmp_path):
        # Earlier versions committed the whole point result plus the wall
        # time spent on it; the reader takes the six counts and ignores
        # the rest.
        spec = small_spec()
        reference = SweepRunner(spec, n_workers=1, cache=None).run()
        store = ResultStore(tmp_path / "points")
        store.put(
            {
                point.content_key(spec): {**result.to_dict(), "elapsed_s": 0.01}
                for point, result in zip(spec.points(), reference.points)
            }
        )
        resumed = SweepRunner(spec, n_workers=1, cache=store).run()
        assert resumed.from_cache and resumed.n_bursts_simulated == 0
        assert stats(resumed) == stats(reference)


class TestCommitPerDrainStep:
    def test_cold_serial_run_makes_one_fsync_per_work_unit(self, tmp_path, monkeypatch):
        # One-burst points fold in the unit that simulates them, so every
        # unit's points make exactly one commit.
        spec = small_spec(
            n_bursts=1, modulations=("qpsk", "16qam"), detectors=("zf", "mmse")
        )
        units, fsyncs = [], []

        def counting(unit):
            units.append(len(unit.items))
            return simulate_batch(unit)

        real_fsync = os.fsync
        monkeypatch.setattr("repro.sim.runner.simulate_batch", counting)
        monkeypatch.setattr(
            "repro.sim.store.os.fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )
        cold = SweepRunner(spec, n_workers=1, cache=ResultStore(tmp_path)).run()
        assert sum(units) == spec.n_points
        assert 1 < len(units) < spec.n_points
        assert len(fsyncs) == len(units)
        assert cold.n_bursts_simulated == spec.n_points
        warm = SweepRunner(spec, n_workers=1, cache=ResultStore(tmp_path)).run()
        assert warm.from_cache and stats(warm) == stats(cold)

    def test_points_folded_before_a_raise_are_committed(self, tmp_path, monkeypatch):
        # The zf and mmse twins of one cell share a unit and fold in the
        # same drain step; a fold that raises for the second must not lose
        # the first.
        spec = small_spec(n_bursts=1, snr_db=(12.0,), detectors=("zf", "mmse"))
        folds = []
        real_fold = SweepRunner._fold

        def failing_second(start, n_bursts, reports, target):
            folds.append(start.point.index)
            if len(folds) == 2:
                raise RuntimeError("injected fold failure")
            return real_fold(start, n_bursts, reports, target)

        monkeypatch.setattr(SweepRunner, "_fold", staticmethod(failing_second))
        store = ResultStore(tmp_path)
        with pytest.raises(RuntimeError, match="injected fold failure"):
            SweepRunner(spec, n_workers=1, cache=store, queue="serial").run()
        assert len(store) == 1
        monkeypatch.undo()
        resumed = SweepRunner(spec, n_workers=1, cache=ResultStore(tmp_path)).run()
        assert resumed.n_bursts_simulated == 1
