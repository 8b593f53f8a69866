"""Work-queue abstraction the sweep runner drains.

The :class:`~repro.sim.runner.SweepRunner` used to own a
``multiprocessing.Pool`` and a wave scheduler; both are now behind one
small interface so the execution substrate is pluggable — an in-process
FIFO today, a process pool today, a multi-host queue tomorrow — without
touching the runner's scheduling, early-stopping or folding logic.

The contract is deliberately tiny:

* :meth:`WorkQueue.submit` enqueues ``func(payload)`` tagged with an opaque
  ``tag`` (the runner's payload is a :class:`~repro.sim.engine.WorkUnit`,
  its tag the unit's point indices);
* :meth:`WorkQueue.next_result` blocks for the next completion and returns
  ``(tag, result)``, re-raising a worker's exception in the caller;
* :attr:`WorkQueue.capacity` tells the producer how much work to keep in
  flight — the runner submits until ``pending() >= capacity``;
* results may complete out of submission order; the runner's burst-level
  fold makes the reported statistics independent of completion order, so
  any backend that executes each payload exactly once is correct.

``func`` must be a module-level function and ``payload`` picklable for the
multiprocessing backend, which ships the function to worker processes by
name and the payload by pickling; the in-process backend takes any of both.
"""

from __future__ import annotations

import multiprocessing
import queue as _thread_queue
from collections import deque
from typing import Any, Callable, Optional, Tuple, Union

from repro.exceptions import ConfigurationError


class WorkQueue:
    """Interface every queue backend implements (see the module docstring)."""

    #: How much submitted-but-unfinished work the backend wants in flight.
    capacity: int = 1

    def submit(self, func: Callable[[Any], Any], payload: Any, tag: Any = None) -> None:
        """Enqueue one unit of work."""
        raise NotImplementedError

    def next_result(self) -> Tuple[Any, Any]:
        """Block for the next completion; ``(tag, result)`` or re-raise."""
        raise NotImplementedError

    def pending(self) -> int:
        """Units submitted but not yet returned by :meth:`next_result`."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's resources; pending work may be abandoned."""
        raise NotImplementedError

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InProcessQueue(WorkQueue):
    """Lazy FIFO executing each task inline inside :meth:`next_result`.

    The serial backend: zero fork overhead, tasks run exactly when their
    result is demanded, and — because nothing executes at submit time —
    the producer's early-stopping decisions stay as fine-grained as with a
    capacity-1 pool.  Exceptions propagate directly from the task.
    """

    capacity = 1

    def __init__(self) -> None:
        self._fifo: deque = deque()

    def submit(self, func: Callable[[Any], Any], payload: Any, tag: Any = None) -> None:
        self._fifo.append((func, payload, tag))

    def next_result(self) -> Tuple[Any, Any]:
        if not self._fifo:
            raise RuntimeError("next_result() called with no pending work")
        func, payload, tag = self._fifo.popleft()
        return tag, func(payload)

    def pending(self) -> int:
        return len(self._fifo)

    def close(self) -> None:
        self._fifo.clear()


class MultiprocessingQueue(WorkQueue):
    """Process-pool backend: completions stream back as workers finish.

    Tasks go out through ``Pool.apply_async`` and come back through a
    thread-safe result queue fed by the pool's callback thread, so
    :meth:`next_result` returns completions in *finish* order — the
    producer can react (stop a point, top up another) while slower tasks
    are still running.  A worker exception is re-raised from
    :meth:`next_result`, tagged result lost, pool left usable.
    """

    def __init__(self, n_workers: int, lookahead: int = 2) -> None:
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        if lookahead <= 0:
            raise ConfigurationError("lookahead must be positive")
        context = multiprocessing.get_context()
        self._pool = context.Pool(processes=n_workers)
        #: Keep more work in flight than workers so none ever idles waiting
        #: for the producer to notice a completion.
        self.capacity = n_workers * lookahead
        self._results: _thread_queue.Queue = _thread_queue.Queue()
        self._pending = 0

    def submit(self, func: Callable[[Any], Any], payload: Any, tag: Any = None) -> None:
        results = self._results

        def on_done(value: Any, tag: Any = tag) -> None:
            results.put((tag, value, None))

        def on_error(error: BaseException, tag: Any = tag) -> None:
            results.put((tag, None, error))

        self._pending += 1
        self._pool.apply_async(
            func, (payload,), callback=on_done, error_callback=on_error
        )

    def next_result(self) -> Tuple[Any, Any]:
        if self._pending <= 0:
            raise RuntimeError("next_result() called with no pending work")
        tag, value, error = self._results.get()
        self._pending -= 1
        if error is not None:
            raise error
        return tag, value

    def pending(self) -> int:
        return self._pending

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()


QueueLike = Union[str, WorkQueue, Callable[[int], WorkQueue]]


def make_queue(backend: QueueLike = "auto", n_workers: int = 1) -> WorkQueue:
    """Build a queue backend by name, instance or factory.

    ``"auto"`` picks :class:`InProcessQueue` for one worker and
    :class:`MultiprocessingQueue` otherwise; ``"serial"`` / ``"process"``
    select explicitly.  A :class:`WorkQueue` instance is returned as-is
    (the caller owns its lifetime); a callable is invoked with the worker
    count — the injection point for test doubles and future remote
    backends.
    """
    if isinstance(backend, WorkQueue):
        return backend
    if callable(backend):
        return backend(n_workers)
    if backend == "auto":
        backend = "serial" if n_workers <= 1 else "process"
    if backend == "serial":
        return InProcessQueue()
    if backend == "process":
        return MultiprocessingQueue(n_workers)
    raise ConfigurationError(
        f"unknown queue backend {backend!r}; expected 'auto', 'serial', "
        "'process', a WorkQueue or a factory"
    )
