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
3. **Early stopping + atomic commits** — batches report per-burst counts
   and the runner folds each point's burst sequence in order, truncating
   at the exact burst whose cumulative bit errors cross
   ``spec.target_errors``.  The moment a point folds, its record is
   committed to the store (one atomic appended line), so a crash loses at
   most the in-flight points.
4. **Adaptive refinement** (:meth:`SweepRunner.run_adaptive`) — after the
   base sweep, extra bursts are allocated round by round to the points
   whose BER confidence intervals are widest (see :mod:`repro.sim.stats`),
   extending each point's deterministic burst stream; refined records are
   stored under budget-extended keys so a re-run replays the allocation
   from the store without simulating.

Statistics never depend on the worker count, queue backend or batch size
(which is why none of them participates in the point keys).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Dict, Hashable, List, Optional, Union

from repro.sim.engine import build_config, simulate_batch
from repro.sim.queue import QueueLike, make_queue
from repro.sim.spec import SweepPoint, SweepPointResult, SweepResult, SweepSpec
from repro.sim.stats import allocate_bursts
from repro.sim.store import ResultStore

StoreLike = Union[None, bool, str, "os.PathLike[str]", ResultStore]


def _pack_units(
    wanting: List[int],
    configs: Dict[int, Hashable],
    batch_of: Dict[int, int],
    capacity: int,
) -> List[List[int]]:
    """Pack the points that want a batch into work units, in priority order.

    ``wanting`` lists point indices, most urgent first; ``configs`` maps
    each to its :func:`~repro.sim.engine.build_config` and ``batch_of`` to
    the batch number it wants next.  A unit opens at the most urgent
    unpacked point and takes along the following points with an equal
    configuration and batch number, up to ``ceil(n_same_config /
    capacity)`` points, where ``n_same_config`` counts the wanting points
    of that configuration — so the serial queue (capacity 1) packs them
    all into one unit while a pool still gets at least ``capacity`` units
    to spread over its workers.  Units come out ordered by their first
    point.
    """
    same_config = Counter(configs[index] for index in wanting)
    groups: Dict[tuple, List[int]] = {}
    for index in wanting:
        groups.setdefault((configs[index], batch_of[index]), []).append(index)
    units = []
    for (config, _), members in groups.items():
        limit = -(-same_config[config] // capacity)
        units.extend(members[start : start + limit] for start in range(0, len(members), limit))
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


class SweepRunner:
    """Execute a sweep spec over a work queue, with per-point persistence.

    Parameters
    ----------
    spec:
        The sweep to run.
    n_workers:
        Pool size; ``None`` uses every CPU.  ``1`` runs inline with no pool
        (no fork overhead — the right choice on single-core hosts and under
        benchmarks).  Zero or negative raises :class:`ValueError`.
    batch_size:
        Bursts per work unit.  Smaller batches give early stopping a finer
        trigger; larger batches amortise task overhead.  The default of 10
        (clamped to the burst budget) works well for both.
    cache:
        ``True`` (default) for the shared per-point store, ``False``/``None``
        to disable persistence, or a directory /
        :class:`~repro.sim.store.ResultStore` selecting a specific store.
    resume:
        When True (default), finished points found in the store are loaded
        instead of simulated — re-running an interrupted or overlapping
        sweep costs only the missing remainder.  ``False`` re-simulates
        everything (fresh records are still committed).
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
        resume: bool = True,
        queue: QueueLike = "auto",
    ) -> None:
        self.spec = spec
        if n_workers is not None and n_workers <= 0:
            raise ValueError("n_workers must be positive or None")
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = min(batch_size or 10, spec.n_bursts)
        self.store = _resolve_store(cache)
        self.resume = bool(resume)
        self.queue_backend = queue

    # ------------------------------------------------------------------
    def run(
        self, use_cache: bool = True, resume: Optional[bool] = None
    ) -> SweepResult:
        """Run (or resume) the sweep and return its result.

        ``resume=None`` defers to the runner's ``resume`` setting;
        ``use_cache=False`` (or ``resume=False``) forces full
        re-simulation while still committing fresh records.
        """
        effective_resume = self.resume if resume is None else bool(resume)
        if not use_cache:
            effective_resume = False
        start = time.perf_counter()
        points = self.spec.points()
        loaded: Dict[int, SweepPointResult] = {}
        if self.store is not None and effective_resume:
            loaded = self._load_finished(points)
        pending = [point for point in points if point.index not in loaded]
        simulated: Dict[int, SweepPointResult] = {}
        computed = 0
        if pending:
            simulated, computed = self._simulate(pending, check_store=effective_resume)
        return SweepResult(
            spec=self.spec,
            points=[
                loaded[p.index] if p.index in loaded else simulated[p.index]
                for p in points
            ],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and not pending,
            n_bursts_simulated=computed,
        )

    # ------------------------------------------------------------------
    # Store round-trips
    def _load_finished(self, points: List[SweepPoint]) -> Dict[int, SweepPointResult]:
        """Finished-point results already committed to the store."""
        by_key = {point.content_key(self.spec): point for point in points}
        records = self.store.get_many(by_key)
        loaded = {}
        for key, payload in records.items():
            point = by_key[key]
            result = self._result_from_record(point, payload)
            if result is not None:
                loaded[point.index] = result
        return loaded

    @staticmethod
    def _result_from_record(
        point: SweepPoint, payload: dict
    ) -> Optional[SweepPointResult]:
        """Rebuild one point result from its store record (None if corrupt)."""
        try:
            return SweepPointResult(
                point=point,
                bit_errors=int(payload["bit_errors"]),
                total_bits=int(payload["total_bits"]),
                frame_errors=int(payload["frame_errors"]),
                n_bursts=int(payload["n_bursts"]),
                early_stopped=bool(payload["early_stopped"]),
                decode_failures=int(payload.get("decode_failures", 0)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _commit(
        self, result: SweepPointResult, elapsed_s: float, extra_bursts: int = 0
    ) -> None:
        """Commit one folded point to the store (atomic appended record)."""
        if self.store is None:
            return
        self.store.put(
            result.point.content_key(self.spec, extra_bursts=extra_bursts),
            {
                "bit_errors": result.bit_errors,
                "total_bits": result.total_bits,
                "frame_errors": result.frame_errors,
                "n_bursts": result.n_bursts,
                "early_stopped": result.early_stopped,
                "decode_failures": result.decode_failures,
                "elapsed_s": elapsed_s,
                "point": result.point.to_dict(),
            },
        )

    # ------------------------------------------------------------------
    # Task building and folding
    def _items_for(self, point: SweepPoint, start_burst: int, n_bursts: int) -> List[dict]:
        """Batch items covering ``n_bursts`` of one point from ``start_burst``."""
        point_payload = point.to_dict()
        return [
            {
                "point": point_payload,
                "start_burst": start_burst + offset,
                "n_bursts": min(self.batch_size, n_bursts - offset),
                "batch_index": batch_index,
            }
            for batch_index, offset in enumerate(range(0, n_bursts, self.batch_size))
        ]

    def _fold(self, point: SweepPoint, batch_stats: List[dict]) -> SweepPointResult:
        """Accumulate the global burst sequence, stopping at the error target.

        Batches report per-burst counts; folding them in batch order and
        truncating at the exact burst whose cumulative bit errors cross
        ``target_errors`` makes the reported statistics a pure function of
        the spec — independent of batch size, worker count and completion
        order.  (Parallel runs may have *computed* bursts past the crossing
        point; they are discarded here.)
        """
        target = self.spec.target_errors
        bit_errors = 0
        total_bits = 0
        frame_errors = 0
        decode_failures = 0
        n_bursts = 0
        stopped = False
        for stats in sorted(batch_stats, key=lambda s: s["batch_index"]):
            for burst in stats["bursts"]:
                bit_errors += burst["bit_errors"]
                total_bits += burst["total_bits"]
                frame_errors += burst["frame_error"]
                decode_failures += burst["decode_failure"]
                n_bursts += 1
                if target is not None and bit_errors >= target:
                    stopped = True
                    break
            if stopped:
                break
        return SweepPointResult(
            point=point,
            bit_errors=bit_errors,
            total_bits=total_bits,
            frame_errors=frame_errors,
            n_bursts=n_bursts,
            early_stopped=n_bursts < self.spec.n_bursts,
            decode_failures=decode_failures,
        )

    def _target_reached(self, bit_errors: int) -> bool:
        """Whether a running per-point error total crossed the stop target."""
        target = self.spec.target_errors
        return target is not None and bit_errors >= target

    @staticmethod
    def _batch_errors(stats: dict) -> int:
        """Total bit errors of one batch report."""
        return sum(burst["bit_errors"] for burst in stats["bursts"])

    # ------------------------------------------------------------------
    # Queue-driven execution
    def _simulate(self, points: List[SweepPoint], check_store: bool = False):
        """Drain the pending points through the work queue.

        Returns ``(results_by_index, computed_bursts)`` where the second
        item counts every burst actually simulated — including any the
        fold later discards past the early-stopping point.

        Scheduling: whenever the queue has capacity, one batch is picked
        from the point with the fewest batches in flight (ties to the
        fewest dispatched, then the lowest index), which round-robins the
        frontier across every unfinished point — the pool stays saturated
        even when early stopping collapses most points to a single batch.
        The picked batch takes along the same-numbered batch of other
        wanting points with an equal :func:`~repro.sim.engine.build_config`
        (in the same round-robin order, by :func:`_pack_units`), so one
        work unit decodes their bursts together.
        A point whose running error total crosses the target stops
        submitting; its in-flight surplus is discarded by the fold.  Every
        point is committed to the store the moment it folds, so an
        interrupted run keeps its finished points.

        With ``check_store`` set, a point is re-checked against the store
        right before its *first* batch is dispatched: a concurrent runner
        that committed the point after this run's initial scan is honoured,
        bounding double simulation to the points genuinely in flight at the
        same moment.
        """
        spec_payload = self.spec.to_dict()
        tasks = {
            point.index: self._items_for(point, 0, self.spec.n_bursts) for point in points
        }
        configs = {point.index: build_config(point, self.spec) for point in points}
        cursors = {point.index: 0 for point in points}
        in_flight = {point.index: 0 for point in points}
        collected: Dict[int, List[dict]] = {point.index: [] for point in points}
        errors = {point.index: 0 for point in points}
        by_index = {point.index: point for point in points}
        results: Dict[int, SweepPointResult] = {}
        computed = 0
        queue = make_queue(self.queue_backend, self.n_workers)
        try:
            def wants_work(index: int) -> bool:
                return (
                    index not in results
                    and cursors[index] < len(tasks[index])
                    and not self._target_reached(errors[index])
                )

            def maybe_finish(index: int) -> None:
                if index in results or in_flight[index] > 0:
                    return
                if cursors[index] < len(tasks[index]) and not self._target_reached(
                    errors[index]
                ):
                    return
                result = self._fold(by_index[index], collected[index])
                results[index] = result
                self._commit(
                    result,
                    sum(s.get("elapsed_s", 0.0) for s in collected[index]),
                )

            def adopted(index: int) -> bool:
                """Adopt a record a concurrent runner committed since our scan."""
                if not (check_store and cursors[index] == 0 and self.store is not None):
                    return False
                record = self.store.get(by_index[index].content_key(self.spec))
                loaded = (
                    self._result_from_record(by_index[index], record)
                    if record is not None
                    else None
                )
                if loaded is None:
                    return False
                results[index] = loaded
                return True

            def order(index: int):
                return (in_flight[index], cursors[index], index)

            def submit_next() -> bool:
                candidates = sorted(
                    (index for index in by_index if wants_work(index)), key=order
                )
                while candidates:
                    packed = _pack_units(candidates, configs, cursors, queue.capacity)[0]
                    candidates = [i for i in candidates if i not in packed]
                    unit = [i for i in packed if not adopted(i)]
                    if not unit:
                        continue
                    queue.submit(
                        simulate_batch,
                        {
                            "spec": spec_payload,
                            "items": [tasks[i][cursors[i]] for i in unit],
                        },
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
                for index, stats in zip(unit, reports):
                    in_flight[index] -= 1
                    collected[index].append(stats)
                    errors[index] += self._batch_errors(stats)
                    computed += len(stats["bursts"])
                    maybe_finish(index)
            for index in by_index:
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
        resume: Optional[bool] = None,
    ) -> SweepResult:
        """Run the base sweep, then spend ``extra_bursts`` where CIs are widest.

        Each round allocates ``extra_bursts / rounds`` additional bursts
        across the grid with :func:`repro.sim.stats.allocate_bursts`:
        greedily, to the points whose BER confidence intervals
        (``confidence``/``method``, see :mod:`repro.sim.stats`) are
        predicted widest.  Extension bursts continue each point's
        deterministic content-keyed stream right after its last folded
        burst — no re-rolling, no early stopping — and the refined record
        is committed under the point's budget-extended key
        (``content_key(spec, extra_bursts=...)``).

        The allocation is a pure function of the base results, so a re-run
        of the same adaptive call replays it exactly and is served entirely
        from the store.  Returned points carry heterogeneous burst counts;
        ``early_stopped`` is False for every refined point (it ran its full
        refined budget).
        """
        if extra_bursts <= 0:
            raise ValueError("extra_bursts must be positive")
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        start = time.perf_counter()
        base = self.run(resume=resume)
        effective_resume = self.resume if resume is None else bool(resume)
        current: Dict[int, SweepPointResult] = {
            result.point.index: result for result in base.points
        }
        extras = {index: 0 for index in current}
        computed = base.n_bursts_simulated
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
            current, extended = self._extend_points(
                current, extras, allocation, effective_resume
            )
            computed += extended
        return SweepResult(
            spec=self.spec,
            points=[current[index] for index in sorted(current)],
            elapsed_s=time.perf_counter() - start,
            from_cache=self.store is not None and computed == 0,
            n_bursts_simulated=computed,
        )

    def _extend_points(
        self,
        current: Dict[int, SweepPointResult],
        extras: Dict[int, int],
        allocation: Dict[int, int],
        effective_resume: bool,
    ):
        """Simulate one refinement round's allocation; returns new results.

        For every allocated point, the refined record (base + all
        extensions so far) is first looked up in the store under the
        extended-budget key; hits are adopted without simulating.  Misses
        simulate the extension bursts through the work queue — seeded by
        absolute burst index, they are the exact bursts an uninterrupted
        run would have drawn — and commit the refined record.
        """
        refined_spec = self.spec.subset(target_errors=None)
        spec_payload = refined_spec.to_dict()
        pending: Dict[int, int] = {}
        for index, count in allocation.items():
            new_extra = extras[index] + count
            if self.store is not None and effective_resume:
                record = self.store.get(
                    current[index].point.content_key(
                        self.spec, extra_bursts=new_extra
                    )
                )
                loaded = (
                    self._result_from_record(current[index].point, record)
                    if record is not None
                    else None
                )
                if loaded is not None:
                    current[index] = loaded
                    extras[index] = new_extra
                    continue
            pending[index] = count
        computed = 0
        if not pending:
            return current, computed

        configs = {
            index: build_config(current[index].point, self.spec) for index in pending
        }
        items = {
            index: self._items_for(current[index].point, current[index].n_bursts, count)
            for index, count in pending.items()
        }
        batches: Dict[int, List[dict]] = {index: [] for index in pending}
        queue = make_queue(self.queue_backend, self.n_workers)
        try:
            for batch in range(max(len(batch_list) for batch_list in items.values())):
                wanting = [index for index in sorted(pending) if batch < len(items[index])]
                batch_of = dict.fromkeys(wanting, batch)
                for unit in _pack_units(wanting, configs, batch_of, queue.capacity):
                    queue.submit(
                        simulate_batch,
                        {
                            "spec": spec_payload,
                            "items": [items[index][batch] for index in unit],
                        },
                        tag=unit,
                    )
            while queue.pending() > 0:
                unit, reports = queue.next_result()
                for index, stats in zip(unit, reports):
                    batches[index].append(stats)
                    computed += len(stats["bursts"])
        finally:
            queue.close()

        for index, stats_list in batches.items():
            result = current[index]
            bit_errors = result.bit_errors
            total_bits = result.total_bits
            frame_errors = result.frame_errors
            decode_failures = result.decode_failures
            n_bursts = result.n_bursts
            elapsed = 0.0
            for stats in sorted(stats_list, key=lambda s: s["batch_index"]):
                elapsed += stats.get("elapsed_s", 0.0)
                for burst in stats["bursts"]:
                    bit_errors += burst["bit_errors"]
                    total_bits += burst["total_bits"]
                    frame_errors += burst["frame_error"]
                    decode_failures += burst["decode_failure"]
                    n_bursts += 1
            extras[index] += pending[index]
            current[index] = SweepPointResult(
                point=result.point,
                bit_errors=bit_errors,
                total_bits=total_bits,
                frame_errors=frame_errors,
                n_bursts=n_bursts,
                early_stopped=False,
                decode_failures=decode_failures,
            )
            self._commit(current[index], elapsed, extra_bursts=extras[index])
        return current, computed


def run_sweep(spec: SweepSpec, **runner_kwargs) -> SweepResult:
    """One-call convenience wrapper: ``SweepRunner(spec, **kwargs).run()``."""
    return SweepRunner(spec, **runner_kwargs).run()
