"""Process-pool execution of independent simulation runs.

Every cell of the paper's (pattern × policy × load) evaluation matrix is
an independent simulation, so the matrix parallelizes perfectly — the only
thing to get right is determinism:

* **Seeding.**  A run's randomness is fully described by its
  :class:`~repro.traffic.workload.WorkloadSpec` seed: the engine builds a
  fresh :class:`~repro.sim.rng.RngRegistry` whose per-entity streams are
  ``numpy.random.SeedSequence``-spawned from that seed (injective in the
  stream name).  No RNG state crosses process boundaries, so a run's
  draws are identical whether it executes inline, in a worker, or in any
  worker interleaving — the common-random-numbers contract across the
  four NP/P × NB/B policies is preserved under any ``jobs`` value.

* **Transport.**  A :class:`RunTask` carries only frozen declarative
  dataclasses (config/workload/plan) into the worker; the
  :class:`~repro.metrics.collector.RunResult` coming back is plain data.
  Both pickle cleanly under every multiprocessing start method.  Batch
  shards return a :class:`~repro.core.batch.BatchResultPayload`
  (struct-of-arrays numpy buffers) instead of a RunResult list; the
  parent decodes it against its own task descriptions, so the wire
  volume is ten flat arrays per shard rather than one object graph per
  run.

* **Assembly.**  Results are reassembled by task index, so the output
  sequence never depends on completion order.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, cast

# numpy >= 2 loads these submodules on first use, and every run uses both
# (RngRegistry streams; np.unique reaches numpy.ma).  Load them here, once,
# so that pool workers forked below inherit them instead of paying the
# ~20 ms import in every worker of every pool.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.core.config import ERapidConfig
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.cache import RunCache
from repro.perf.shards import SLAB_CAP, ShardReport, ShardSpec, plan_shards
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "RunTask",
    "execute_run",
    "execute_tasks",
    "run_sweep_batched",
    "run_cached",
    "PUT_CHUNK",
    "SLAB_CAP",
]

#: ``on_result(index, result)`` — invoked as runs complete (completion
#: order under ``jobs > 1``, task order serially).
ResultHook = Callable[[int, RunResult], None]

#: ``on_shard(report)`` — invoked once per shard as it finishes; the
#: service layer collects these into the job manifest.
ShardHook = Callable[[ShardReport], None]

#: ``on_result(index, result, cached)`` — :func:`run_cached`'s per-run hook.
CachedHook = Callable[[int, RunResult, bool], None]

#: Fresh results buffered per :meth:`~repro.perf.cache.RunCache.put_many`
#: flush.  Bounds how many completed runs a crash could lose from the
#: cache (never from the caller's results) while batching the fsyncs.
PUT_CHUNK = 32


@dataclass(frozen=True, slots=True)
class RunTask:
    """One simulation run, described declaratively (picklable)."""

    config: ERapidConfig
    workload: WorkloadSpec
    plan: MeasurementPlan


def execute_run(task: RunTask) -> RunResult:
    """Run one task to completion in the current process."""
    from repro.core.engine import FastEngine

    return FastEngine(task.config, task.workload, task.plan).run()


def _execute_indexed(indexed: Tuple[int, RunTask]) -> Tuple[int, RunResult]:
    """Worker entry point (module-level so it pickles under spawn)."""
    index, task = indexed
    return index, execute_run(task)


def execute_tasks(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
) -> List[RunResult]:
    """Execute ``tasks``; returns results in task order.

    ``jobs <= 1`` runs inline (zero pool overhead); ``jobs > 1`` fans out
    to a :class:`~concurrent.futures.ProcessPoolExecutor` of at most
    ``min(jobs, len(tasks))`` workers.  The returned list is ordered by
    task index either way, so callers observe identical output.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: List[Optional[RunResult]] = [None] * len(tasks)
    if jobs == 1 or len(tasks) <= 1:
        for i, task in enumerate(tasks):
            result = execute_run(task)
            results[i] = result
            if on_result is not None:
                on_result(i, result)
        return cast(List[RunResult], results)

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        pending = {
            pool.submit(_execute_indexed, (i, task))
            for i, task in enumerate(tasks)
        }
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                index, result = fut.result()
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
    return cast(List[RunResult], results)


def _shard_runs(
    tasks: Sequence[RunTask], shard: ShardSpec
) -> List[Tuple[ERapidConfig, WorkloadSpec, MeasurementPlan]]:
    return [
        (tasks[i].config, tasks[i].workload, tasks[i].plan)
        for i in shard.indices
    ]


def _execute_batch_shard(
    args: Tuple[int, Tuple[RunTask, ...]],
) -> Tuple[int, float, object, Optional[dict]]:
    """Worker entry point for one batch shard (module-level: picklable).

    Returns ``(shard_id, worker_seconds, BatchResultPayload, telemetry)``
    — the compact struct-of-arrays transport, never a pickled RunResult
    list; the parent decodes it against its own task descriptions.  The
    telemetry dict carries the slab's cycle/event counters (a handful of
    ints — negligible next to the payload arrays).
    """
    from repro.core.batch import BatchEngine

    shard_id, shard_tasks = args
    start = perf_counter()
    engine = BatchEngine([(t.config, t.workload, t.plan) for t in shard_tasks])
    payload = engine.run_payload()
    telemetry = (
        engine.telemetry.to_dict() if engine.telemetry is not None else None
    )
    return shard_id, perf_counter() - start, payload, telemetry


def run_sweep_batched(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
    slab_shard: Optional[int] = None,
    on_shard: Optional[ShardHook] = None,
) -> List[RunResult]:
    """Execute ``tasks`` on the vectorized batch engine where possible.

    Tasks the batch model covers (:func:`repro.core.batch.coverage_gap`
    returns None) are grouped by :func:`repro.core.batch.slab_key` and
    sharded into per-worker sub-slabs by :func:`repro.perf.shards.
    plan_shards`; uncovered tasks fall back to the scalar engine.  Under
    ``jobs > 1`` batch shards and scalar-fallback runs share **one**
    process pool as a unified work queue, so ``jobs`` saturates the
    machine regardless of the covered/fallback mix (``slab_shard``
    overrides the shard-size heuristic; see :mod:`repro.perf.shards`).
    ``jobs == 1`` executes everything inline with no transport at all.

    The returned list is in task order, like :func:`execute_tasks`.
    ``on_result(index, result)`` fires exactly once per index — in task
    order within a shard as that shard completes, shard completion order
    across shards.  Shard layout never changes a run's result: every
    run's state rows are independent, so partitioning is purely a
    throughput concern (``tests/service/test_batch_jobs.py`` pins equal
    fingerprints across ``jobs`` and ``slab_shard`` layouts).

    A batch shard that raises is not fatal: its indices are re-routed to
    the scalar engine (same pool) and the shard is reported with
    ``kind="fallback"`` via ``on_shard``; a scalar run's exception
    propagates, as in :func:`execute_tasks`.
    """
    from repro.core.batch import BatchEngine, decode_payload

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    plan = plan_shards(tasks, jobs=jobs, slab_shard=slab_shard)
    results: List[Optional[RunResult]] = [None] * len(tasks)
    started = perf_counter()

    def report(
        shard: ShardSpec,
        kind: str,
        seconds: float,
        payload_bytes: int = 0,
        error: Optional[str] = None,
        telemetry: Optional[dict] = None,
    ) -> None:
        if on_shard is not None:
            on_shard(
                ShardReport(
                    shard_id=shard.shard_id,
                    kind=kind,
                    runs=shard.runs,
                    seconds=seconds,
                    payload_bytes=payload_bytes,
                    error=error,
                    telemetry=telemetry,
                )
            )

    def deliver(shard: ShardSpec, decoded: Sequence[RunResult]) -> None:
        # Task order within the shard — the exactly-once, in-order
        # contract the service's event stream relies on.
        for i, result in zip(shard.indices, decoded):
            results[i] = result
            if on_result is not None:
                on_result(i, result)

    def run_scalar_inline(i: int) -> None:
        result = execute_run(tasks[i])
        results[i] = result
        if on_result is not None:
            on_result(i, result)

    if jobs == 1:
        for shard in plan.batch_shards:
            runs = _shard_runs(tasks, shard)
            start = perf_counter()
            try:
                engine = BatchEngine(runs)
                payload = engine.run_payload()
            except Exception as exc:  # noqa: BLE001 - re-routed, not dropped
                for i in shard.indices:
                    run_scalar_inline(i)
                report(
                    shard,
                    "fallback",
                    perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            deliver(shard, decode_payload(payload, runs))
            report(
                shard,
                "batch",
                perf_counter() - start,
                payload.nbytes,
                telemetry=(
                    engine.telemetry.to_dict()
                    if engine.telemetry is not None
                    else None
                ),
            )
        scalar_shard = next(
            (s for s in plan.shards if s.kind == "scalar"), None
        )
        if scalar_shard is not None:
            for i in scalar_shard.indices:
                run_scalar_inline(i)
            report(scalar_shard, "scalar", perf_counter() - started)
        return cast(List[RunResult], results)

    scalar_shard = next((s for s in plan.shards if s.kind == "scalar"), None)
    n_items = len(plan.batch_shards) + (
        scalar_shard.runs if scalar_shard is not None else 0
    )
    scalar_open = scalar_shard.runs if scalar_shard is not None else 0
    with ProcessPoolExecutor(max_workers=min(jobs, max(n_items, 1))) as pool:
        pending: dict[Future, Tuple[str, object]] = {}
        for shard in plan.batch_shards:
            fut = pool.submit(
                _execute_batch_shard,
                (shard.shard_id, tuple(tasks[i] for i in shard.indices)),
            )
            pending[fut] = ("batch", shard)
        if scalar_shard is not None:
            for i in scalar_shard.indices:
                fut = pool.submit(_execute_indexed, (i, tasks[i]))
                pending[fut] = ("scalar", i)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                kind, obj = pending.pop(fut)
                if kind == "batch":
                    shard = cast(ShardSpec, obj)
                    try:
                        _, seconds, payload, telemetry = fut.result()
                    except Exception as exc:  # noqa: BLE001 - re-route
                        for i in shard.indices:
                            f2 = pool.submit(_execute_indexed, (i, tasks[i]))
                            pending[f2] = ("rescued", (i, shard))
                        report(
                            shard,
                            "fallback",
                            perf_counter() - started,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        continue
                    deliver(
                        shard,
                        decode_payload(payload, _shard_runs(tasks, shard)),
                    )
                    report(
                        shard,
                        "batch",
                        seconds,
                        payload.nbytes,  # type: ignore[attr-defined]
                        telemetry=telemetry,
                    )
                else:
                    index, result = fut.result()
                    results[index] = result
                    if on_result is not None:
                        on_result(index, result)
                    if kind == "scalar":
                        scalar_open -= 1
                        if scalar_open == 0 and scalar_shard is not None:
                            report(
                                scalar_shard,
                                "scalar",
                                perf_counter() - started,
                            )
    return cast(List[RunResult], results)


def run_cached(
    tasks: Sequence[RunTask],
    cache: Optional[RunCache] = None,
    jobs: int = 1,
    engine: str = "fast",
    on_result: Optional[CachedHook] = None,
    slab_shard: Optional[int] = None,
    on_shard: Optional[ShardHook] = None,
    execute: Optional[Callable[..., List[RunResult]]] = None,
) -> Tuple[List[RunResult], List[Optional[str]]]:
    """Answer ``tasks`` from ``cache``, execute the rest, store what ran.

    The one copy of the cached-run loop (load sweeps, ablation stages and
    service jobs all call it): every task's content address, one batched
    :meth:`~repro.perf.cache.RunCache.get_many`, the misses through
    :func:`execute_tasks` — or, for ``engine="batch"``,
    :func:`run_sweep_batched` with ``slab_shard``/``on_shard`` — and the
    fresh results back through ``put_many`` in chunks of
    :data:`PUT_CHUNK`.  Keys are engine-aware per task: a point the batch
    model covers is keyed (and tagged) in the batch keyspace, a fallback
    point keeps its scalar key — its result *is* a scalar result.

    ``on_result(index, result, cached)`` fires once per task: hits first,
    in task order, then live runs as they complete.  ``execute`` replaces
    the executor (``execute(tasks, jobs=, on_result=)``; the service's
    test seam).  ``cache=None`` only executes.  Returns ``(results,
    keys)`` in task order; keys are ``None`` without a cache.
    """
    engines = ["fast"] * len(tasks)
    if engine == "batch":
        from repro.core.batch import coverage_gap

        engines = [
            "batch" if coverage_gap(t.config, t.workload, t.plan) is None else "fast"
            for t in tasks
        ]
    keys: List[Optional[str]] = [None] * len(tasks)
    results: List[Optional[RunResult]] = [None] * len(tasks)
    if cache is not None:
        keys = [
            cache.key_for(t.config, t.workload, t.plan, engine=e)
            for t, e in zip(tasks, engines)
        ]
        results = cache.get_many(cast(List[str], keys))
    missing: List[int] = []
    for i, hit in enumerate(results):
        if hit is None:
            missing.append(i)
        elif on_result is not None:
            on_result(i, hit, True)

    put_buffer: List[Tuple[str, RunResult, str]] = []

    def fresh(position: int, result: RunResult) -> None:
        i = missing[position]
        results[i] = result
        if cache is not None:
            put_buffer.append((cast(str, keys[i]), result, engines[i]))
            if len(put_buffer) >= PUT_CHUNK:
                cache.put_many(put_buffer)
                put_buffer.clear()
        if on_result is not None:
            on_result(i, result, False)

    todo = [tasks[i] for i in missing]
    if execute is not None:
        execute(todo, jobs=jobs, on_result=fresh)
    elif engine == "batch":
        run_sweep_batched(
            todo, jobs=jobs, on_result=fresh, slab_shard=slab_shard,
            on_shard=on_shard,
        )
    else:
        execute_tasks(todo, jobs=jobs, on_result=fresh)
    if cache is not None:
        cache.put_many(put_buffer)  # the last, partial chunk (no-op if empty)
    return cast(List[RunResult], results), keys
