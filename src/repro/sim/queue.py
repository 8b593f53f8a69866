"""The two work queues the sweep runner drains.

:class:`InProcessQueue` runs each task inline when its result is asked
for; :class:`MultiprocessingQueue` runs tasks on a process pool.  Each
:class:`~repro.sim.runner.SweepRunner` call builds one of them by name
with :func:`make_queue` and closes it on return.  Both answer the same
four calls:

* ``submit(func, payload, tag)`` enqueues ``func(payload)`` tagged with an
  opaque ``tag`` (the runner's payload is a
  :class:`~repro.sim.engine.WorkUnit`, its tag the unit's point indices);
* ``next_result()`` blocks for the next completion and returns
  ``(tag, result)``, re-raising a worker's exception in the caller;
* ``capacity`` tells the producer how much work to keep in flight — the
  runner submits until ``pending() >= capacity``;
* ``close()`` releases the queue.

Results may complete out of submission order; the runner's burst-level
fold makes the reported statistics independent of completion order.

``func`` must be a module-level function and ``payload`` picklable for the
process pool, which ships the function to worker processes by name and
the payload by pickling; the in-process queue takes any of both.
"""

from __future__ import annotations

import multiprocessing
import queue as _thread_queue
from collections import deque
from typing import Any, Callable, Tuple, Union

from repro.exceptions import ConfigurationError

#: The names :func:`make_queue` and ``SweepRunner(queue=...)`` accept.
QUEUE_BACKENDS = ("auto", "serial", "process")


class InProcessQueue:
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


class MultiprocessingQueue:
    """Process-pool backend: completions stream back as workers finish.

    Tasks go out through ``Pool.apply_async`` and come back through a
    thread-safe result queue fed by the pool's callback thread, so
    :meth:`next_result` returns completions in *finish* order — the
    producer can react (stop a point, top up another) while slower tasks
    are still running.  A worker exception is re-raised from
    :meth:`next_result`, tagged result lost, pool left usable.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        context = multiprocessing.get_context()
        self._pool = context.Pool(processes=n_workers)
        #: Two units in flight per worker, so none ever idles waiting for
        #: the producer to notice a completion.
        self.capacity = 2 * n_workers
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


def make_queue(
    backend: str = "auto", n_workers: int = 1
) -> Union[InProcessQueue, MultiprocessingQueue]:
    """Build the queue a backend name (:data:`QUEUE_BACKENDS`) selects.

    ``"auto"`` picks :class:`InProcessQueue` for one worker and
    :class:`MultiprocessingQueue` otherwise; ``"serial"`` / ``"process"``
    select explicitly.
    """
    if backend not in QUEUE_BACKENDS:
        raise ConfigurationError(
            f"unknown queue backend {backend!r}; expected one of {QUEUE_BACKENDS}"
        )
    if backend == "auto":
        backend = "serial" if n_workers <= 1 else "process"
    if backend == "serial":
        return InProcessQueue()
    return MultiprocessingQueue(n_workers)
