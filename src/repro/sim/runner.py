"""Resumable, store-backed sweep execution.

:class:`SweepRunner` turns a :class:`~repro.sim.spec.SweepSpec` into a
:class:`~repro.sim.spec.SweepResult`:

1. **Resume first** — every grid point hashes to a stable
   :meth:`~repro.sim.spec.SweepPoint.content_key`; points with a finished
   record in the append-only :class:`~repro.sim.store.ResultStore` are loaded
   without simulating a burst.  An interrupted sweep therefore re-runs
   only its missing remainder, and overlapping grids share their
   intersection.
2. **Batches over a work queue** — each pending point's burst budget is
   split into fixed-size batches and drained through the call's work
   queue (:mod:`repro.sim.queue`: an in-process FIFO for one worker, a
   ``multiprocessing`` pool otherwise).  Every burst owns a deterministic
   RNG stream seeded by the point's content and the burst index, so the
   simulated physics is bit-identical for any queue, batch size or
   completion order.
3. **Early stopping + atomic commits** — batches report each burst's
   :class:`~repro.core.frame.BurstOutcome` and the runner folds each
   point's burst sequence in order, truncating at the exact burst whose
   cumulative bit errors stop the point
   (:meth:`~repro.sim.spec.SweepSpec.stops_at`).  The points that fold
   while the runner handles one completed work unit are committed together
   before it takes the next (one ``write`` + ``fsync`` per drain step), so
   a crash loses at most the in-flight points.
4. **Adaptive refinement** (:meth:`SweepRunner.run_adaptive`) — after the
   base sweep, extra bursts are allocated round by round to the points
   whose BER confidence intervals are widest (see :mod:`repro.sim.stats`),
   extending each point's deterministic burst stream through the same
   scheduler and fold as the base sweep; refined records are stored under
   budget-extended keys so a re-run replays the allocation from the store
   without simulating.

Statistics never depend on the worker count, queue backend or batch size
(which is why none of them participates in the point keys).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple, Union

from repro.sim.engine import BatchItem, BatchReport, WorkUnit, air_key, build_config, simulate_batch
from repro.sim.queue import QUEUE_BACKENDS, InProcessQueue, MultiprocessingQueue, make_queue
from repro.exceptions import ConfigurationError, integer_at_least
from repro.sim.spec import SweepPoint, SweepPointResult, SweepResult, SweepSpec
from repro.sim.stats import allocate_bursts
from repro.sim.store import ResultStore

StoreLike = Union[None, bool, str, "os.PathLike[str]", ResultStore]
_Queue = Union[InProcessQueue, MultiprocessingQueue]

#: What a store record holds: a point result's six counts, each with the
#: type it must have.  The grid cell is not stored; the grid that
#: reads the record supplies it.
_RECORD_FIELDS = {
    "bit_errors": int,
    "total_bits": int,
    "frame_errors": int,
    "n_bursts": int,
    "early_stopped": bool,
    "decode_failures": int,
}


def _next_unit(
    wanting: List[int],
    groups: Dict[int, Hashable],
    twins: Dict[int, Hashable],
    batch_of: Dict[int, int],
    capacity: int,
) -> List[int]:
    """The work unit the most urgent point that wants a batch opens.

    ``wanting`` lists point indices, most urgent first; ``groups`` maps
    each to its :meth:`~repro.core.config.TransceiverConfig.air_group`,
    ``twins`` to its :func:`~repro.sim.engine.air_key` and ``batch_of`` to
    the batch number it wants next.  The unit holds points of the first
    point's air group and batch number, in *cells* of equal air key:
    twins, which put the same bursts on air, always share a unit.  It
    takes the first point's cell and the following cells, in priority
    order, up to ``ceil(n_cells / capacity)`` cells, where ``n_cells``
    counts the wanting cells of that air group over every batch number —
    so the serial queue (capacity 1) packs them all into one unit while a
    pool still gets at least ``capacity`` units to spread over its
    workers.
    """
    group, batch = groups[wanting[0]], batch_of[wanting[0]]
    cells: Dict[Hashable, List[int]] = {}
    group_cells = set()
    for index in wanting:
        if groups[index] == group:
            group_cells.add((batch_of[index], twins[index]))
            if batch_of[index] == batch:
                cells.setdefault(twins[index], []).append(index)
    limit = -(-len(group_cells) // capacity)
    return [index for cell in list(cells.values())[:limit] for index in cell]


def _resolve_store(cache: StoreLike) -> Optional[ResultStore]:
    """Normalise the ``cache`` argument into a :class:`ResultStore` or ``None``."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultStore()
    if isinstance(cache, ResultStore):
        return cache
    return ResultStore(cache)


def _empty_result(point: SweepPoint) -> SweepPointResult:
    """The zero-burst result a base point's simulation starts from."""
    return SweepPointResult(
        point, bit_errors=0, total_bits=0, frame_errors=0, n_bursts=0, early_stopped=False
    )


class SweepRunner:
    """Execute a sweep spec over a work queue, with per-point persistence.

    Parameters
    ----------
    spec:
        The sweep to run.
    n_workers:
        Pool size; ``None`` uses every CPU.  ``1`` runs inline with no pool
        (no fork overhead — the right choice on single-core hosts and under
        benchmarks).
    batch_size:
        Bursts per work unit.  Smaller batches give early stopping a finer
        trigger; larger batches amortise task overhead.  The default of 10
        (clamped to the burst budget) works well for both.  Like
        ``n_workers``, anything but ``None`` or a positive integer raises
        :class:`~repro.exceptions.ConfigurationError`.
    cache:
        ``True`` (default) for the shared per-point store, ``False``/``None``
        to disable persistence, or a directory /
        :class:`~repro.sim.store.ResultStore` selecting a specific store.
        Finished points found in the store are loaded instead of
        simulated, so re-running an interrupted or overlapping sweep costs
        only the missing remainder.
    queue:
        Execution backend: ``"auto"`` (default; in-process for one worker,
        a ``multiprocessing`` pool otherwise), ``"serial"`` or
        ``"process"``; any other value raises
        :class:`~repro.exceptions.ConfigurationError`.  Each :meth:`run`
        or :meth:`run_adaptive` call builds one queue on its first
        dispatch and closes it when the call returns or raises.
    """

    def __init__(
        self,
        spec: SweepSpec,
        n_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        cache: StoreLike = True,
        queue: str = "auto",
    ) -> None:
        self.spec = spec
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = integer_at_least("n_workers", n_workers, 1)
        batch_size = integer_at_least("batch_size", 10 if batch_size is None else batch_size, 1)
        self.batch_size = min(batch_size, spec.n_bursts)
        self.store = _resolve_store(cache)
        if queue not in QUEUE_BACKENDS:
            raise ConfigurationError(
                f"unknown queue backend {queue!r}; expected one of {QUEUE_BACKENDS}"
            )
        self.queue_backend = queue

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        """Run (or resume) the sweep and return its result."""
        return self._execute(extra_bursts=0, rounds=1)

    @contextmanager
    def _work_queue(self) -> Iterator[Callable[[], _Queue]]:
        """The one work queue of a :meth:`run` or :meth:`run_adaptive` call.

        Yields a getter that builds the queue on its first use, the call's
        first dispatch.  The queue is closed when the call returns or
        raises, so no unit of a failed call outlives it.
        """
        built: List[_Queue] = []

        def queue() -> _Queue:
            if not built:
                built.append(make_queue(self.queue_backend, self.n_workers))
            return built[0]

        try:
            yield queue
        finally:
            for work in built:
                work.close()

    # ------------------------------------------------------------------
    # Store round-trips
    def _store_key(self, point: SweepPoint, extra_bursts: int = 0) -> Optional[str]:
        """A job's store key, ``None`` without a store."""
        if self.store is not None:
            return point.content_key(self.spec, extra_bursts=extra_bursts)
        return None

    @staticmethod
    def _result_from_record(
        point: SweepPoint, payload: Optional[dict], spec: SweepSpec
    ) -> Optional[SweepPointResult]:
        """Rebuild one point result from its store record (None if absent
        or corrupt).

        The record holds the :data:`_RECORD_FIELDS` counts (records of
        earlier versions hold more, which is ignored).  It is a point
        result only if each count has its type (an ``int`` is never a
        ``bool``) and the counts agree as :meth:`_fold` makes them:
        ``0 <= decode_failures <= frame_errors <= n_bursts`` and
        ``0 <= bit_errors <= total_bits == n_bursts * n_streams *
        n_info_bits``.  Any other record is corrupt and gets re-simulated.
        """
        if payload is None or any(
            type(payload.get(name)) is not kind for name, kind in _RECORD_FIELDS.items()
        ):
            return None
        counts = {name: payload[name] for name in _RECORD_FIELDS}
        burst_bits = point.n_streams * spec.n_info_bits
        if not (
            0 <= counts["decode_failures"] <= counts["frame_errors"] <= counts["n_bursts"]
            and 0 <= counts["bit_errors"] <= counts["total_bits"]
            and counts["total_bits"] == counts["n_bursts"] * burst_bits
        ):
            return None
        return SweepPointResult(point=point, **counts)

    # ------------------------------------------------------------------
    # Folding
    @staticmethod
    def _fold(
        start: SweepPointResult,
        n_bursts: int,
        reports: List[BatchReport],
        spec: SweepSpec,
    ) -> SweepPointResult:
        """Extend ``start`` by its next bursts, stopping where ``spec`` stops.

        Folding the reports' burst outcomes in batch order and truncating
        at the first burst whose cumulative bit errors
        :meth:`~repro.sim.spec.SweepSpec.stops_at` accepts makes the
        reported statistics a pure function of the spec — independent of
        batch size, worker count and completion order.  (Parallel runs may
        have *computed* bursts past the crossing point; they are discarded
        here.)  The result is early-stopped when it folded fewer than the
        ``n_bursts`` it was asked for.
        """
        folded = []
        bit_errors = start.bit_errors
        outcomes = (
            outcome
            for report in sorted(reports, key=lambda report: report.batch_index)
            for outcome in report.outcomes
        )
        for outcome in outcomes:
            folded.append(outcome)
            bit_errors += outcome.bit_errors
            if spec.stops_at(bit_errors):
                break
        return SweepPointResult(
            point=start.point,
            bit_errors=bit_errors,
            total_bits=start.total_bits + sum(outcome.payload_bits for outcome in folded),
            frame_errors=start.frame_errors + sum(outcome.frame_error for outcome in folded),
            n_bursts=start.n_bursts + len(folded),
            early_stopped=len(folded) < n_bursts,
            decode_failures=start.decode_failures
            + sum(outcome.decode_failure for outcome in folded),
        )

    # ------------------------------------------------------------------
    # Queue-driven execution
    def _simulate(
        self,
        jobs: Dict[int, Tuple[SweepPointResult, int, Optional[str]]],
        spec: SweepSpec,
        queue: Callable[[], _Queue],
    ):
        """Resume the jobs from the store, then drain the rest through the
        call's work queue.

        ``jobs`` maps a point index to ``(start, n_bursts, store_key)``:
        simulate the ``n_bursts`` bursts that follow ``start`` (an empty
        result for a base point, the current refined result for an
        extension), fold them onto it, and commit the result under
        ``store_key``.  Workers run ``spec``, whose
        :meth:`~repro.sim.spec.SweepSpec.stops_at` also stops the fold.
        Each point's configuration and air key are worked out once, here,
        for every :class:`~repro.sim.engine.BatchItem` of it.

        Resume first: with a store, one read loads every job whose record
        is already committed, and only the others are simulated.

        Returns ``(results_by_index, computed_bursts)`` where the second
        item counts every burst actually simulated — including any the
        fold later discards past the early-stopping point.

        Scheduling: whenever the queue has capacity, one batch is picked
        from the point with the fewest batches in flight (ties to the
        fewest dispatched, then the lowest index), which round-robins the
        frontier across every unfinished point — the pool stays saturated
        even when early stopping collapses most points to a single batch.
        The picked batch takes along the same-numbered batch of other
        wanting points of its
        :meth:`~repro.core.config.TransceiverConfig.air_group` (in the
        same round-robin order, twins kept together, by
        :func:`_next_unit`), so one work unit transmits each shared burst
        once and decodes all their bursts together.
        A point that stops submits no more batches; its in-flight surplus
        is discarded by the fold.  The points that fold while one result is
        handled are committed to the store in one
        :meth:`~repro.sim.store.ResultStore.put` before the next result is
        taken, and the ones already folded are committed also when the run
        raises, so an interrupted run keeps its finished points.

        With a store, the resume read is the call's only read of it: a
        record another runner commits while this one drains is not looked
        for, so two runners with the same point in flight may both simulate
        it.  They commit identical records, and the last one wins.
        """
        results: Dict[int, SweepPointResult] = {}
        if self.store is not None:
            records = self.store.get_many([key for _, _, key in jobs.values()])
            for index, (start, _, key) in jobs.items():
                loaded = self._result_from_record(start.point, records.get(key), spec)
                if loaded is not None:
                    results[index] = loaded
            jobs = {index: job for index, job in jobs.items() if index not in results}
        if not jobs:
            return results, 0
        tasks: Dict[int, List[BatchItem]] = {}
        configs, twins = {}, {}
        for index, (start, n_bursts, _) in jobs.items():
            configs[index] = build_config(start.point, spec)
            twins[index] = air_key(start.point, spec)
            tasks[index] = [
                BatchItem(
                    point=start.point,
                    config=configs[index],
                    air_key=twins[index],
                    start_burst=start.n_bursts + offset,
                    n_bursts=min(self.batch_size, n_bursts - offset),
                    batch_index=batch_index,
                )
                for batch_index, offset in enumerate(range(0, n_bursts, self.batch_size))
            ]
        group_of = {config: config.air_group() for config in set(configs.values())}
        groups = {index: group_of[config] for index, config in configs.items()}
        cursors = dict.fromkeys(jobs, 0)
        in_flight = dict.fromkeys(jobs, 0)
        collected: Dict[int, List[BatchReport]] = {index: [] for index in jobs}
        errors = {index: start.bit_errors for index, (start, _, _) in jobs.items()}
        finished: Dict[str, dict] = {}
        work = queue()

        def commit() -> None:
            """Commit every point folded since the last commit, in one put."""
            if finished:
                batch = dict(finished)
                finished.clear()
                self.store.put(batch)

        def wants_work(index: int) -> bool:
            return cursors[index] < len(tasks[index]) and not spec.stops_at(errors[index])

        def maybe_finish(index: int) -> None:
            if index in results or in_flight[index] > 0 or wants_work(index):
                return
            start, n_bursts, key = jobs[index]
            result = self._fold(start, n_bursts, collected[index], spec)
            results[index] = result
            if self.store is not None:
                finished[key] = {name: getattr(result, name) for name in _RECORD_FIELDS}

        def order(index: int):
            return (in_flight[index], cursors[index], index)

        def submit_next() -> bool:
            wanting = sorted((index for index in jobs if wants_work(index)), key=order)
            if not wanting:
                return False
            unit = _next_unit(wanting, groups, twins, cursors, work.capacity)
            work.submit(
                simulate_batch,
                WorkUnit(spec, tuple(tasks[i][cursors[i]] for i in unit)),
                tag=unit,
            )
            for i in unit:
                cursors[i] += 1
                in_flight[i] += 1
            return True

        computed = 0
        try:
            while True:
                while work.pending() < work.capacity and submit_next():
                    pass
                if work.pending() == 0:
                    break
                unit, reports = work.next_result()
                for index, report in zip(unit, reports):
                    in_flight[index] -= 1
                    collected[index].append(report)
                    errors[index] += sum(outcome.bit_errors for outcome in report.outcomes)
                    computed += len(report.outcomes)
                    maybe_finish(index)
                commit()
            for index in jobs:
                maybe_finish(index)
        finally:
            # The points that folded before a raise are complete: keep them.
            commit()
        return results, computed

    # ------------------------------------------------------------------
    # Adaptive refinement
    def run_adaptive(self, extra_bursts: int, rounds: int = 4) -> SweepResult:
        """Run the base sweep, then spend ``extra_bursts`` where CIs are widest.

        Each round allocates ``extra_bursts / rounds`` additional bursts
        across the grid with :func:`repro.sim.stats.allocate_bursts`:
        greedily, to the points whose 95% Wilson BER intervals
        (:meth:`~repro.sim.spec.SweepPointResult.ber_interval_width`) are
        predicted widest.  Extension bursts continue each point's
        deterministic content-keyed stream right after its last folded
        burst — no re-rolling, no early stopping — and run through the
        same scheduler, fold and work queue as the base sweep; the refined
        record is committed, in the same format, under the point's
        budget-extended key (``content_key(spec, extra_bursts=...)``).

        The allocation is a pure function of the base results, so a re-run
        of the same adaptive call replays it exactly and is served entirely
        from the store: like the base sweep, each round first loads its
        committed refinements in one read.  Returned points carry
        heterogeneous burst counts; ``early_stopped`` is False for every
        refined point (it ran its full refined budget).
        """
        return self._execute(
            integer_at_least("extra_bursts", extra_bursts, 1),
            integer_at_least("rounds", rounds, 1),
        )

    def _execute(self, extra_bursts: int, rounds: int) -> SweepResult:
        """The base sweep, then ``extra_bursts`` refinement bursts over
        ``rounds`` rounds, all through one work queue."""
        start = time.perf_counter()
        points = self.spec.points()
        base = {
            point.index: (_empty_result(point), self.spec.n_bursts, self._store_key(point))
            for point in points
        }
        with self._work_queue() as queue:
            current, computed = self._simulate(base, self.spec, queue)
            extras = dict.fromkeys(current, 0)
            refined_spec = self.spec.subset(target_errors=None)
            per_round = -(-extra_bursts // rounds)  # ceil
            remaining = extra_bursts
            while remaining > 0:
                budget = min(per_round, remaining)
                remaining -= budget
                allocation = allocate_bursts(
                    widths={
                        index: result.ber_interval_width()
                        for index, result in current.items()
                    },
                    observations={
                        index: result.total_bits for index, result in current.items()
                    },
                    per_burst={
                        index: max(
                            result.total_bits // max(result.n_bursts, 1),
                            self.spec.n_info_bits,
                        )
                        for index, result in current.items()
                    },
                    budget=budget,
                )
                if not allocation:
                    break
                jobs = {}
                for index, count in allocation.items():
                    extras[index] += count
                    key = self._store_key(current[index].point, extras[index])
                    jobs[index] = (current[index], count, key)
                refined, extended = self._simulate(jobs, refined_spec, queue)
                current.update(refined)
                computed += extended
        return SweepResult(
            spec=self.spec,
            points=[current[point.index] for point in points],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and computed == 0,
            n_bursts_simulated=computed,
        )
