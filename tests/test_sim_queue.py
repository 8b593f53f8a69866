"""Tests for repro.sim.queue: backend semantics the runner relies on."""

import pytest

from repro.sim import SweepRunner, SweepSpec
from repro.sim.queue import (
    InProcessQueue,
    MultiprocessingQueue,
    WorkQueue,
    make_queue,
)


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
        with MultiprocessingQueue(n_workers=2) as queue:
            for x in range(4):
                queue.submit(double, {"x": x}, tag=x)
            results = dict(queue.next_result() for _ in range(4))
        assert results == {0: 0, 1: 2, 2: 4, 3: 6}

    def test_capacity_scales_with_workers(self):
        with MultiprocessingQueue(n_workers=2, lookahead=3) as queue:
            assert queue.capacity == 6

    def test_worker_exception_reraises_in_caller(self):
        with MultiprocessingQueue(n_workers=1) as queue:
            queue.submit(explode, {"x": 3}, tag="bad")
            queue.submit(double, {"x": 5}, tag="good")
            outcomes = {}
            for _ in range(2):
                try:
                    tag, value = queue.next_result()
                    outcomes[tag] = value
                except RuntimeError as error:
                    outcomes["error"] = str(error)
            assert outcomes["error"] == "boom-3"
            assert outcomes["good"] == 10  # the pool survives a failure

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiprocessingQueue(n_workers=0)
        with pytest.raises(ValueError):
            MultiprocessingQueue(n_workers=1, lookahead=0)


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

    def test_instance_passes_through(self):
        queue = InProcessQueue()
        assert make_queue(queue, n_workers=4) is queue

    def test_factory_receives_worker_count(self):
        seen = []

        def factory(n_workers):
            seen.append(n_workers)
            return InProcessQueue()

        queue = make_queue(factory, n_workers=5)
        assert isinstance(queue, InProcessQueue)
        assert seen == [5]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_queue("quantum", n_workers=1)

    def test_interface_is_abstract(self):
        queue = WorkQueue()
        with pytest.raises(NotImplementedError):
            queue.submit(double, {})
        with pytest.raises(NotImplementedError):
            queue.next_result()


class TestRunnerOwnership:
    """The runner closes the queues it builds and leaves a passed-in one open."""

    def test_passed_in_pool_survives_the_runs_that_use_it(self):
        spec = SweepSpec(
            snr_db=(10.0, 30.0),
            modulations=("qpsk",),
            stream_counts=(2,),
            n_info_bits=48,
            n_bursts=2,
            target_errors=None,
        )
        serial = SweepRunner(spec, n_workers=1, cache=None).run_adaptive(4, rounds=2)
        with MultiprocessingQueue(n_workers=2) as queue:
            runner = SweepRunner(spec, n_workers=2, cache=None, queue=queue)
            adaptive = runner.run_adaptive(4, rounds=2)  # three drains, one pool
            again = runner.run()
            assert queue.pending() == 0
            queue.submit(double, {"x": 4}, tag="still open")
            assert queue.next_result() == ("still open", 8)
        assert [p.to_dict() for p in adaptive.points] == [p.to_dict() for p in serial.points]
        assert again.n_bursts_simulated == spec.n_points * spec.n_bursts

    def test_a_queue_holding_earlier_work_is_refused(self):
        # A run that raised leaves its in-flight units in a caller-owned
        # queue; folding them into the next run would corrupt its points.
        spec = SweepSpec(snr_db=(30.0,), stream_counts=(2,), n_info_bits=48, n_bursts=1)
        queue = InProcessQueue()
        queue.submit(double, {"x": 1}, tag=[0])
        with pytest.raises(ValueError, match="earlier run"):
            SweepRunner(spec, n_workers=1, cache=None, queue=queue).run()
        assert queue.pending() == 1

    def test_queues_built_from_a_factory_are_closed(self):
        built = []

        class Recording(InProcessQueue):
            closed = False

            def close(self):
                self.closed = True
                super().close()

        def factory(n_workers):
            built.append(Recording())
            return built[-1]

        spec = SweepSpec(snr_db=(30.0,), stream_counts=(2,), n_info_bits=48, n_bursts=1)
        SweepRunner(spec, n_workers=1, cache=None, queue=factory).run()
        assert len(built) == 1 and built[0].closed
