"""Tests for repro.sim.queue: backend semantics the runner relies on."""

import pytest

import repro.sim.queue as queue_module
import repro.sim.runner as runner_module
from repro.sim import SweepRunner, SweepSpec
from repro.sim.queue import InProcessQueue, MultiprocessingQueue, make_queue


def double(payload):
    """Module-level work function (picklable for the process backend)."""
    return payload["x"] * 2


def explode(payload):
    """Module-level failing work function."""
    raise RuntimeError(f"boom-{payload['x']}")


class TestInProcessQueue:
    def test_fifo_order_and_tags(self):
        queue = InProcessQueue()
        for x in range(3):
            queue.submit(double, {"x": x}, tag=f"t{x}")
        assert queue.pending() == 3
        assert queue.next_result() == ("t0", 0)
        assert queue.next_result() == ("t1", 2)
        assert queue.pending() == 1
        queue.close()
        assert queue.pending() == 0

    def test_lazy_execution(self):
        # Nothing runs at submit time: early stopping decisions made
        # between submit and next_result still spare the work.
        calls = []
        queue = InProcessQueue()
        queue.submit(lambda payload: calls.append(payload), {"x": 1})
        assert calls == []
        queue.next_result()
        assert calls == [{"x": 1}]

    def test_exception_propagates(self):
        queue = InProcessQueue()
        queue.submit(explode, {"x": 7})
        with pytest.raises(RuntimeError, match="boom-7"):
            queue.next_result()

    def test_next_result_without_work_raises(self):
        with pytest.raises(RuntimeError):
            InProcessQueue().next_result()


class TestMultiprocessingQueue:
    def test_results_come_back_tagged(self):
        queue = MultiprocessingQueue(n_workers=2)
        try:
            for x in range(4):
                queue.submit(double, {"x": x}, tag=x)
            results = dict(queue.next_result() for _ in range(4))
        finally:
            queue.close()
        assert results == {0: 0, 1: 2, 2: 4, 3: 6}

    def test_capacity_is_two_units_per_worker(self):
        queue = MultiprocessingQueue(n_workers=3)
        try:
            assert queue.capacity == 6
        finally:
            queue.close()

    def test_worker_exception_reraises_in_caller(self):
        queue = MultiprocessingQueue(n_workers=1)
        outcomes = {}
        try:
            queue.submit(explode, {"x": 3}, tag="bad")
            queue.submit(double, {"x": 5}, tag="good")
            for _ in range(2):
                try:
                    tag, value = queue.next_result()
                    outcomes[tag] = value
                except RuntimeError as error:
                    outcomes["error"] = str(error)
        finally:
            queue.close()
        assert outcomes["error"] == "boom-3"
        assert outcomes["good"] == 10  # the pool survives a failure

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiprocessingQueue(n_workers=0)


class TestMakeQueue:
    def test_auto_picks_by_worker_count(self):
        serial = make_queue("auto", n_workers=1)
        assert isinstance(serial, InProcessQueue)
        pooled = make_queue("auto", n_workers=2)
        try:
            assert isinstance(pooled, MultiprocessingQueue)
        finally:
            pooled.close()

    def test_explicit_names(self):
        assert isinstance(make_queue("serial", n_workers=8), InProcessQueue)
        pooled = make_queue("process", n_workers=1)
        try:
            assert isinstance(pooled, MultiprocessingQueue)
        finally:
            pooled.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_queue("quantum", n_workers=1)


class TestRunnerOwnsItsQueue:
    """Each run() or run_adaptive() call builds one queue and closes it."""

    SPEC = SweepSpec(
        snr_db=(10.0, 30.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=48,
        n_bursts=2,
        target_errors=None,
    )

    @pytest.fixture
    def built(self, monkeypatch):
        """Every queue the runner builds, each with its number of closes."""
        built = []

        def counted(base):
            class Counted(base):
                def __init__(self, *args):
                    super().__init__(*args)
                    self.closes = 0
                    built.append(self)

                def close(self):
                    self.closes += 1
                    super().close()

            return Counted

        for name in ("InProcessQueue", "MultiprocessingQueue"):
            monkeypatch.setattr(queue_module, name, counted(getattr(queue_module, name)))
        return built

    def test_adaptive_call_builds_one_pool(self, built):
        serial = SweepRunner(self.SPEC, n_workers=1, cache=None).run_adaptive(4, rounds=2)
        built.clear()
        pooled = SweepRunner(self.SPEC, n_workers=2, cache=None).run_adaptive(4, rounds=2)
        assert len(built) == 1 and isinstance(built[0], MultiprocessingQueue)
        assert built[0].closes == 1
        assert [p.to_dict() for p in pooled.points] == [p.to_dict() for p in serial.points]

    def test_a_call_that_raises_closes_its_queue(self, built, monkeypatch):
        def fail(unit):
            raise RuntimeError("unit failed")

        monkeypatch.setattr(runner_module, "simulate_batch", fail)
        with pytest.raises(RuntimeError, match="unit failed"):
            SweepRunner(self.SPEC, n_workers=1, cache=None).run_adaptive(4, rounds=2)
        assert len(built) == 1 and built[0].closes == 1

    def test_a_call_served_from_the_store_builds_no_queue(self, built, tmp_path):
        first = SweepRunner(self.SPEC, n_workers=2, cache=tmp_path).run_adaptive(4, rounds=2)
        assert len(built) == 1
        again = SweepRunner(self.SPEC, n_workers=2, cache=tmp_path).run_adaptive(4, rounds=2)
        assert len(built) == 1
        assert again.from_cache and again.n_bursts_simulated == 0
        assert [p.to_dict() for p in again.points] == [p.to_dict() for p in first.points]
