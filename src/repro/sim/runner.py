"""Resumable, store-backed sweep execution over pluggable work queues.

:class:`SweepRunner` turns a :class:`~repro.sim.spec.SweepSpec` into a
:class:`~repro.sim.spec.SweepResult`:

1. **Resume first** — every grid point hashes to a stable
   :meth:`~repro.sim.spec.SweepPoint.content_key`; points with a finished
   record in the sharded :class:`~repro.sim.store.ResultStore` are loaded
   without simulating a burst.  An interrupted sweep therefore re-runs
   only its missing remainder, and overlapping grids share their
   intersection.
2. **Batches over a work queue** — each pending point's burst budget is
   split into fixed-size batches and drained through a
   :class:`~repro.sim.queue.WorkQueue` (in-process FIFO for one worker, a
   ``multiprocessing`` pool otherwise).  Every burst owns a deterministic
   RNG stream seeded by the point's content and the burst index, so the
   simulated physics is bit-identical for any backend, batch size or
   completion order.
3. **Early stopping + atomic commits** — batches report each burst's
   :class:`~repro.core.frame.BurstOutcome` and the runner folds each
   point's burst sequence in order, truncating
   at the exact burst whose cumulative bit errors cross
   ``spec.target_errors``.  The moment a point folds, its record is
   committed to the store (one atomic appended line), so a crash loses at
   most the in-flight points.
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
from collections import Counter
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.sim.engine import BatchItem, BatchReport, WorkUnit, air_key, build_config, simulate_batch
from repro.sim.queue import QueueLike, make_queue
from repro.sim.spec import SweepPoint, SweepPointResult, SweepResult, SweepSpec, integer_at_least
from repro.sim.stats import allocate_bursts
from repro.sim.store import ResultStore

StoreLike = Union[None, bool, str, "os.PathLike[str]", ResultStore]


def _pack_units(
    wanting: List[int],
    groups: Dict[int, Hashable],
    twins: Dict[int, Hashable],
    batch_of: Dict[int, int],
    capacity: int,
) -> List[List[int]]:
    """Pack the points that want a batch into work units, in priority order.

    ``wanting`` lists point indices, most urgent first; ``groups`` maps
    each to its :meth:`~repro.core.config.TransceiverConfig.air_group`,
    ``twins`` to its :func:`~repro.sim.engine.air_key` and ``batch_of`` to
    the batch number it wants next.  Points of one air group and batch number go together,
    in *cells* of equal air key: twins, which put the same bursts on air,
    always share a unit.  A unit opens at the most urgent unpacked point
    and takes along the following cells, up to ``ceil(n_cells /
    capacity)`` cells, where ``n_cells`` counts the wanting cells of that
    air group — so the serial queue (capacity 1) packs them all into one
    unit while a pool still gets at least ``capacity`` units to spread over
    its workers.  Units come out ordered by their first point.
    """
    bins: Dict[tuple, Dict[Hashable, List[int]]] = {}
    for index in wanting:
        cells = bins.setdefault((groups[index], batch_of[index]), {})
        cells.setdefault(twins[index], []).append(index)
    n_cells = Counter()
    for (group, _), cells in bins.items():
        n_cells[group] += len(cells)
    units = []
    for (group, _), cells in bins.items():
        members = list(cells.values())
        limit = -(-n_cells[group] // capacity)
        units.extend(
            [index for cell in members[start : start + limit] for index in cell]
            for start in range(0, len(members), limit)
        )
    position = {index: rank for rank, index in enumerate(wanting)}
    return sorted(units, key=lambda unit: position[unit[0]])


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
        a ``multiprocessing`` pool otherwise), ``"serial"``, ``"process"``,
        a :class:`~repro.sim.queue.WorkQueue` instance or a factory
        ``n_workers -> WorkQueue``.
    """

    def __init__(
        self,
        spec: SweepSpec,
        n_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        cache: StoreLike = True,
        queue: QueueLike = "auto",
    ) -> None:
        self.spec = spec
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = integer_at_least("n_workers", n_workers, 1)
        batch_size = integer_at_least("batch_size", 10 if batch_size is None else batch_size, 1)
        self.batch_size = min(batch_size, spec.n_bursts)
        self.store = _resolve_store(cache)
        self.queue_backend = queue

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        """Run (or resume) the sweep and return its result."""
        start = time.perf_counter()
        points = self.spec.points()
        keys = {point.index: self._store_key(point) for point in points}
        loaded: Dict[int, SweepPointResult] = {}
        if self.store is not None:
            loaded = self._load_finished(points, keys)
        jobs = {
            point.index: (_empty_result(point), self.spec.n_bursts, keys[point.index])
            for point in points
            if point.index not in loaded
        }
        simulated, computed = self._simulate(jobs, self.spec)
        results = {**loaded, **simulated}
        return SweepResult(
            spec=self.spec,
            points=[results[p.index] for p in points],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and not jobs,
            n_bursts_simulated=computed,
        )

    # ------------------------------------------------------------------
    # Store round-trips
    def _store_key(self, point: SweepPoint, extra_bursts: int = 0) -> Optional[str]:
        """A job's store key, ``None`` without a store."""
        if self.store is not None:
            return point.content_key(self.spec, extra_bursts=extra_bursts)
        return None

    def _load_finished(
        self, points: List[SweepPoint], keys: Dict[int, str]
    ) -> Dict[int, SweepPointResult]:
        """Finished-point results already committed to the store."""
        by_key = {keys[point.index]: point for point in points}
        loaded = {}
        for key, payload in self.store.get_many(by_key).items():
            result = self._result_from_record(by_key[key], payload)
            if result is not None:
                loaded[result.point.index] = result
        return loaded

    @staticmethod
    def _result_from_record(
        point: SweepPoint, payload: dict
    ) -> Optional[SweepPointResult]:
        """Rebuild one point result from its store record (None if corrupt).

        The record is :meth:`SweepPointResult.to_dict` plus ``elapsed_s``;
        one missing a field is corrupt and gets re-simulated.
        """
        try:
            return SweepPointResult(
                point=point,
                bit_errors=int(payload["bit_errors"]),
                total_bits=int(payload["total_bits"]),
                frame_errors=int(payload["frame_errors"]),
                n_bursts=int(payload["n_bursts"]),
                early_stopped=bool(payload["early_stopped"]),
                decode_failures=int(payload["decode_failures"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Folding
    @staticmethod
    def _fold(
        start: SweepPointResult,
        n_bursts: int,
        reports: List[BatchReport],
        target_errors: Optional[int],
    ) -> SweepPointResult:
        """Extend ``start`` by its next bursts, stopping at the error target.

        Folding the reports' burst outcomes in batch order and truncating
        at the exact burst whose cumulative bit errors cross
        ``target_errors`` makes the reported statistics a pure function of
        the spec — independent of batch size, worker count and completion
        order.  (Parallel runs may have *computed* bursts past the crossing
        point; they are discarded here.)  The result is early-stopped when
        it folded fewer than the ``n_bursts`` it was asked for.
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
            if target_errors is not None and bit_errors >= target_errors:
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
        self, jobs: Dict[int, Tuple[SweepPointResult, int, Optional[str]]], spec: SweepSpec
    ):
        """Drain the jobs through the work queue.

        ``jobs`` maps a point index to ``(start, n_bursts, store_key)``:
        simulate the ``n_bursts`` bursts that follow ``start`` (an empty
        result for a base point, the current refined result for an
        extension), fold them onto it, and commit the result under
        ``store_key``.  Workers run ``spec``, whose ``target_errors`` also
        stops the fold.  Each point's configuration and air key are worked
        out once, here, for every :class:`~repro.sim.engine.BatchItem` of it.

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
        :func:`_pack_units`), so one work unit transmits each shared burst
        once and decodes all their bursts together.
        A point whose running error total crosses the target stops
        submitting; its in-flight surplus is discarded by the fold.  Every
        point is committed to the store the moment it folds, so an
        interrupted run keeps its finished points.

        With a store, a point is checked against it right before its
        *first* batch is dispatched: a record committed since this run's
        initial scan (by a concurrent runner, or by an earlier run of the
        same refinement) is adopted instead of simulated, bounding double
        simulation to the points genuinely in flight at the same moment.
        """
        if not jobs:
            return {}, 0
        target = spec.target_errors
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
        results: Dict[int, SweepPointResult] = {}
        computed = 0
        queue = make_queue(self.queue_backend, self.n_workers)
        try:
            def wants_work(index: int) -> bool:
                return (
                    index not in results
                    and cursors[index] < len(tasks[index])
                    and (target is None or errors[index] < target)
                )

            def maybe_finish(index: int) -> None:
                if index in results or in_flight[index] > 0 or wants_work(index):
                    return
                start, n_bursts, key = jobs[index]
                result = self._fold(start, n_bursts, collected[index], target)
                results[index] = result
                if self.store is not None:
                    elapsed_s = sum(report.elapsed_s for report in collected[index])
                    self.store.put(key, {**result.to_dict(), "elapsed_s": elapsed_s})

            def adopted(index: int) -> bool:
                """Adopt a record committed since this run's initial scan."""
                if not (cursors[index] == 0 and self.store is not None):
                    return False
                start, _, key = jobs[index]
                record = self.store.get(key)
                loaded = (
                    None if record is None else self._result_from_record(start.point, record)
                )
                if loaded is not None:
                    results[index] = loaded
                return loaded is not None

            def order(index: int):
                return (in_flight[index], cursors[index], index)

            def submit_next() -> bool:
                candidates = sorted((index for index in jobs if wants_work(index)), key=order)
                while candidates:
                    packed = _pack_units(candidates, groups, twins, cursors, queue.capacity)[0]
                    candidates = [i for i in candidates if i not in packed]
                    unit = [i for i in packed if not adopted(i)]
                    if not unit:
                        continue
                    queue.submit(
                        simulate_batch,
                        WorkUnit(spec, tuple(tasks[i][cursors[i]] for i in unit)),
                        tag=unit,
                    )
                    for i in unit:
                        cursors[i] += 1
                        in_flight[i] += 1
                    return True
                return False

            while True:
                while queue.pending() < queue.capacity and submit_next():
                    pass
                if queue.pending() == 0:
                    break
                unit, reports = queue.next_result()
                for index, report in zip(unit, reports):
                    in_flight[index] -= 1
                    collected[index].append(report)
                    errors[index] += sum(outcome.bit_errors for outcome in report.outcomes)
                    computed += len(report.outcomes)
                    maybe_finish(index)
            for index in jobs:
                maybe_finish(index)
        finally:
            queue.close()
        return results, computed

    # ------------------------------------------------------------------
    # Adaptive refinement
    def run_adaptive(
        self,
        extra_bursts: int,
        rounds: int = 4,
        confidence: float = 0.95,
        method: str = "wilson",
    ) -> SweepResult:
        """Run the base sweep, then spend ``extra_bursts`` where CIs are widest.

        Each round allocates ``extra_bursts / rounds`` additional bursts
        across the grid with :func:`repro.sim.stats.allocate_bursts`:
        greedily, to the points whose BER confidence intervals
        (``confidence``/``method``, see :mod:`repro.sim.stats`) are
        predicted widest.  Extension bursts continue each point's
        deterministic content-keyed stream right after its last folded
        burst — no re-rolling, no early stopping — and run through the
        same scheduler and fold as the base sweep; the refined record is
        committed, in the same format, under the point's budget-extended key
        (``content_key(spec, extra_bursts=...)``).

        The allocation is a pure function of the base results, so a re-run
        of the same adaptive call replays it exactly and is served entirely
        from the store.  Returned points carry heterogeneous burst counts;
        ``early_stopped`` is False for every refined point (it ran its full
        refined budget).
        """
        extra_bursts = integer_at_least("extra_bursts", extra_bursts, 1)
        rounds = integer_at_least("rounds", rounds, 1)
        start = time.perf_counter()
        base = self.run()
        current: Dict[int, SweepPointResult] = {
            result.point.index: result for result in base.points
        }
        extras = dict.fromkeys(current, 0)
        computed = base.n_bursts_simulated
        refined_spec = self.spec.subset(target_errors=None)
        per_round = -(-extra_bursts // rounds)  # ceil
        remaining = extra_bursts
        while remaining > 0:
            budget = min(per_round, remaining)
            remaining -= budget
            allocation = allocate_bursts(
                widths={
                    index: result.ber_interval_width(confidence, method)
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
            refined, extended = self._simulate(jobs, refined_spec)
            current.update(refined)
            computed += extended
        return SweepResult(
            spec=self.spec,
            points=[current[index] for index in sorted(current)],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and computed == 0,
            n_bursts_simulated=computed,
        )


def run_sweep(spec: SweepSpec, **runner_kwargs) -> SweepResult:
    """One-call convenience wrapper: ``SweepRunner(spec, **kwargs).run()``."""
    return SweepRunner(spec, **runner_kwargs).run()
