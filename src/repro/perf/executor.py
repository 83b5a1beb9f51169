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

One scheduling loop (:func:`_execute_plan`) runs every
:class:`~repro.perf.shards.ShardPlan`: :func:`execute_tasks` is a plan
with one scalar shard, :func:`run_sweep_batched` the planner's batch
shards plus their scalar fallback, and a batch shard that raises is
rescued on the scalar engine inside the same loop.

:func:`open_pool` is the one place a process pool is built.  A caller
that runs many plans (the sweep service) opens one and passes it down
``run_cached -> execute -> _execute_plan`` as ``pool=``; without one,
each pooled plan opens and shuts down its own.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

# numpy >= 2 loads these submodules on first use, and every run uses both
# (RngRegistry streams; np.unique reaches numpy.ma).  Load them here, once,
# so that pool workers forked below inherit them instead of paying the
# ~20 ms import in every worker of every pool.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.cache import RunCache, key_scope
from repro.perf.engines import CACHED, DEFAULT_ENGINE, ENGINES
from repro.perf.shards import ShardPlan, ShardReport, ShardSpec, plan_shards
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "RunTask",
    "grid_tasks",
    "execute_run",
    "execute_tasks",
    "run_sweep_batched",
    "run_cached",
    "cache_keys",
    "open_pool",
    "PUT_CHUNK",
]

#: ``on_result(index, result)`` — invoked as runs complete (completion
#: order under a pool, task order inline).
ResultHook = Callable[[int, RunResult], None]

#: ``on_shard(report)`` — invoked once per shard as it finishes; the
#: service layer collects these into the job manifest.
ShardHook = Callable[[ShardReport], None]

#: ``on_result(index, result, cached)`` — :func:`run_cached`'s per-run hook.
CachedHook = Callable[[int, RunResult, bool], None]

#: ``(cache key, engine keyspace)`` of one task — :func:`cache_keys`.
KeyedRun = Tuple[str, str]

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


def grid_tasks(
    base: ERapidConfig,
    pattern: str,
    policies: Sequence[str],
    loads: Sequence[float],
    seed: int,
    plan: MeasurementPlan,
) -> List[RunTask]:
    """Every run of one (policy × load) panel, policy-major then load order.

    The one grid expansion: :meth:`repro.experiments.sweep.SweepSpec.tasks`
    and :meth:`repro.service.spec.JobSpec.tasks` both call it, so a service
    job's results are positionally comparable to a direct sweep.
    """
    out: List[RunTask] = []
    for policy in policies:
        config = base.with_policy(POLICIES[policy])
        out.extend(
            RunTask(config, WorkloadSpec(pattern, load, seed=seed), plan)
            for load in loads
        )
    return out


def execute_run(task: RunTask) -> RunResult:
    """Run one task to completion in the current process."""
    from repro.core.engine import FastEngine

    return FastEngine(task.config, task.workload, task.plan).run()


def _execute_indexed(indexed: Tuple[int, RunTask]) -> Tuple[int, RunResult]:
    """Worker entry point (module-level so it pickles under spawn)."""
    index, task = indexed
    return index, execute_run(task)


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


def open_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` workers: the program's only pool
    constructor.

    The pool is started before it is returned: under the ``fork`` start
    method the first ``submit`` forks every worker at once, so a caller
    that opens the pool before starting threads of its own forks no
    process while one of those threads holds a lock.
    """
    pool = ProcessPoolExecutor(workers)
    pool.submit(int)
    return pool


class _Inline:
    """Executor stand-in: ``submit`` runs the call in this process and
    returns an already-completed future."""

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(arg))
        except Exception as exc:  # noqa: BLE001 - re-raised by result()
            future.set_exception(exc)
        return future


def _execute_plan(
    tasks: Sequence[RunTask],
    plan: ShardPlan,
    on_result: Optional[ResultHook],
    on_shard: Optional[ShardHook],
    pool: Optional[ProcessPoolExecutor] = None,
) -> List[RunResult]:
    """The one scheduling loop: run every shard of ``plan``, results in
    task order.

    Batch shards go to :func:`_execute_batch_shard`, scalar runs to
    :func:`_execute_indexed`.  The loop runs inline when ``plan.jobs`` is
    1 or when the plan is at most one scalar run; otherwise everything is
    submitted as a unified queue to ``pool`` — the caller's, which stays
    open — or, when none is given, to a pool of ``min(jobs, work items)``
    workers opened and shut down here.  A batch shard under ``jobs > 1``
    always leaves this process, even a lone one.  Inline, items run one at
    a time so results stream out as they finish.  Done futures are handled
    in submission order, so inline delivery is deterministic.

    ``on_result`` fires once per index, in task order within a batch
    shard.  ``on_shard`` gets one report per batch shard (``kind="batch"``,
    or ``"fallback"`` when it raised: its indices are then re-queued on
    the scalar engine) and one aggregate ``"scalar"`` report when the last
    run of the scalar shard completes.  A scalar run's exception
    propagates, and so does :class:`~concurrent.futures.process.
    BrokenProcessPool`: a shard whose pool died is not rescued on it.
    """
    if plan.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {plan.jobs}")
    scalar_shard = next((s for s in plan.shards if s.kind == "scalar"), None)
    work: Deque[Tuple[str, Any]] = deque(
        [("batch", s) for s in plan.batch_shards]
        + [("scalar", i) for i in plan.scalar_indices]
    )
    results: List[Optional[RunResult]] = [None] * len(tasks)
    scalar_open = len(plan.scalar_indices)
    workers = min(plan.jobs, len(work))
    pooled = workers > 1 or (plan.jobs > 1 and bool(plan.batch_shards))
    started = perf_counter()

    def report(shard: ShardSpec, kind: str, seconds: float, **extra: Any) -> None:
        if on_shard is not None:
            on_shard(
                ShardReport(shard.shard_id, kind, shard.runs, seconds, **extra)
            )

    def deliver(indices: Sequence[int], decoded: Sequence[RunResult]) -> None:
        for i, result in zip(indices, decoded):
            results[i] = result
            if on_result is not None:
                on_result(i, result)

    if not pooled:
        context: Any = nullcontext(_Inline())
    elif pool is None:
        context = open_pool(workers)
    else:
        context = nullcontext(pool)
    with context as executor:
        pending: Dict[Future, Tuple[str, Any]] = {}
        while work or pending:
            while work and (pooled or not pending):
                kind, item = work.popleft()
                if kind == "batch":
                    shard_tasks = tuple(tasks[i] for i in item.indices)
                    future = executor.submit(
                        _execute_batch_shard, (item.shard_id, shard_tasks)
                    )
                else:
                    future = executor.submit(_execute_indexed, (item, tasks[item]))
                pending[future] = (kind, item)
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in [f for f in pending if f in done]:
                kind, item = pending.pop(future)
                if kind != "batch":
                    index, result = future.result()
                    deliver((index,), (result,))
                    if kind == "scalar":
                        scalar_open -= 1
                        if scalar_open == 0:
                            report(
                                cast(ShardSpec, scalar_shard),
                                "scalar",
                                perf_counter() - started,
                            )
                    continue
                try:
                    _, seconds, payload, telemetry = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:  # noqa: BLE001 - rescued, not dropped
                    work.extendleft(("rescued", i) for i in reversed(item.indices))
                    report(
                        item, "fallback", perf_counter() - started,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    continue
                from repro.core.batch import decode_payload

                runs = [
                    (tasks[i].config, tasks[i].workload, tasks[i].plan)
                    for i in item.indices
                ]
                deliver(item.indices, decode_payload(payload, runs))
                report(
                    item, "batch", seconds,
                    payload_bytes=payload.nbytes, telemetry=telemetry,
                )
    return cast(List[RunResult], results)


def execute_tasks(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> List[RunResult]:
    """Execute ``tasks`` on the scalar engine; returns results in task order.

    :func:`_execute_plan` over one scalar shard: inline for one job or
    one task, else on ``pool`` (or a pool of ``min(jobs, len(tasks))``
    workers opened for this call).  The returned list is ordered by task
    index either way, so callers observe identical output.
    """
    scalar = ShardSpec(0, "scalar", tuple(range(len(tasks))))
    plan = ShardPlan(jobs=jobs, shard_size=0, shards=(scalar,))
    return _execute_plan(tasks, plan, on_result, None, pool)


def run_sweep_batched(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
    on_shard: Optional[ShardHook] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> List[RunResult]:
    """Execute ``tasks`` on the vectorized batch engine where possible.

    Tasks the batch model covers (:func:`repro.core.batch.coverage_gap`
    returns None) are grouped by :func:`repro.core.batch.slab_key` and
    sharded into per-worker sub-slabs by :func:`repro.perf.shards.
    plan_shards`; uncovered tasks fall back to the scalar engine.  The
    plan runs through :func:`_execute_plan`: under ``jobs > 1`` batch
    shards and scalar-fallback runs share **one** process pool as a
    unified work queue, so ``jobs`` saturates the machine regardless of
    the covered/fallback mix.

    The returned list is in task order, like :func:`execute_tasks`.
    ``on_result(index, result)`` fires exactly once per index — in task
    order within a shard as that shard completes, shard completion order
    across shards.  Shard layout never changes a run's result: every
    run's state rows are independent, so partitioning is purely a
    throughput concern (``tests/service/test_batch_jobs.py`` pins equal
    fingerprints across layouts).

    A batch shard that raises is not fatal: its indices are re-routed to
    the scalar engine (same pool) and the shard is reported with
    ``kind="fallback"`` via ``on_shard``; a scalar run's exception
    propagates, as in :func:`execute_tasks`.  ``pool`` is as there.
    """
    return _execute_plan(
        tasks, plan_shards(tasks, jobs=jobs), on_result, on_shard, pool
    )


def _cached_entry(engine: str) -> Any:
    """``engine``'s :data:`~repro.perf.engines.ENGINES` entry, which must
    be a cached one."""
    entry = ENGINES.get(engine)
    if entry is None or entry.execute is None:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {', '.join(CACHED)}"
        )
    return entry


def cache_keys(
    tasks: Sequence[RunTask], cache: RunCache, engine: str = DEFAULT_ENGINE
) -> List[KeyedRun]:
    """Each task's ``(content address, engine keyspace)`` in ``cache``.

    Keys are engine-aware per task: a point ``engine``'s ``covers``
    admits is keyed (and tagged) in its keyspace, any other point keeps
    its fast key — it runs on the fast engine, so its result *is* a fast
    result.  ``engine`` must be a cached engine of :data:`repro.perf.
    engines.ENGINES`, else :class:`~repro.errors.ConfigurationError`.

    Each key is still derived per task through ``cache.key_for``, inside
    the caller's :func:`~repro.perf.cache.key_scope` or one of its own, so
    a frozen object that several tasks hold is encoded once: a panel's
    runs share one config per policy and one plan, and every config its
    default sub-objects.
    """
    entry = _cached_entry(engine)
    out: List[KeyedRun] = []
    with key_scope():
        for t in tasks:
            run = (t.config, t.workload, t.plan)
            e = engine if entry.covers(*run) is None else DEFAULT_ENGINE
            out.append((cache.key_for(*run, engine=e), e))
    return out


def run_cached(
    tasks: Sequence[RunTask],
    cache: Optional[RunCache] = None,
    jobs: int = 1,
    engine: str = DEFAULT_ENGINE,
    on_result: Optional[CachedHook] = None,
    on_shard: Optional[ShardHook] = None,
    execute: Optional[Callable[..., List[RunResult]]] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    keyed: Optional[Sequence[KeyedRun]] = None,
) -> Tuple[List[RunResult], List[Optional[str]]]:
    """Answer ``tasks`` from ``cache``, execute the rest, store what ran.

    The one copy of the cached-run loop (load sweeps, ablation stages and
    service jobs all call it).  ``engine`` must be a cached engine of
    :data:`repro.perf.engines.ENGINES`, else :class:`~repro.errors.
    ConfigurationError` before any key or cache I/O.  Every task's
    :func:`cache_keys` entry (``keyed``, when the caller already computed
    them), one batched :meth:`~repro.perf.cache.RunCache.get_many`, the
    misses through the entry's ``execute`` (:func:`execute_tasks` for
    fast, :func:`run_sweep_batched` with ``on_shard`` for batch) on
    ``pool`` when given, and the fresh results back through ``put_many``
    in chunks of :data:`PUT_CHUNK`.

    ``on_result(index, result, cached)`` fires once per task: hits first,
    in task order, then live runs as they complete.  ``execute`` replaces
    the executor (``execute(tasks, jobs=, on_result=)``; the service's
    test seam).  ``cache=None`` only executes.  Returns ``(results,
    keys)`` in task order; keys are ``None`` without a cache.
    """
    entry = _cached_entry(engine)
    keys: List[Optional[str]] = [None] * len(tasks)
    engines: List[str] = [DEFAULT_ENGINE] * len(tasks)
    results: List[Optional[RunResult]] = [None] * len(tasks)
    if cache is not None:
        if keyed is None:
            keyed = cache_keys(tasks, cache, engine)
        keys = [k for k, _ in keyed]
        engines = [e for _, e in keyed]
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
    if execute is None:
        entry.execute(
            todo, jobs=jobs, on_result=fresh, on_shard=on_shard, pool=pool
        )
    else:
        execute(todo, jobs=jobs, on_result=fresh)
    if cache is not None:
        cache.put_many(put_buffer)  # the last, partial chunk (no-op if empty)
    return cast(List[RunResult], results), keys
