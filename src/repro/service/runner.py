"""Single-job execution: cache dedup, worker-shard fan-out, run records.

:func:`execute_job` is the service's unit of work.  It expands a
:class:`~repro.service.spec.JobSpec` into run tasks in the exact task
order of :func:`repro.experiments.sweep.run_sweep` (both call
:func:`repro.perf.executor.grid_tasks`) and hands them to :func:`repro.perf.executor.run_cached` — the loop the direct sweep
path uses — which answers every run it can from the content-addressed
:class:`~repro.perf.cache.RunCache`, fans the remainder out to the
bounded process pool, and stores every fresh result back.  Because the
task list, seeding, and reassembly are the direct sweep path's, a job's
results — and therefore its
:func:`~repro.analysis.determinism.sweep_fingerprint` — are bit-identical
to ``run_sweep`` on the same spec, at any ``jobs`` width and any cache
hit pattern.

Every run produces a :class:`RunRecord` (cache key + hit/miss) in
deterministic spec order; the artifact manifest persists them so a past
job is auditable run by run.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.analysis.determinism import sweep_fingerprint
from repro.metrics.collector import RunResult
from repro.perf.cache import RunCache
from repro.perf.executor import KeyedRun, run_cached
from repro.perf.shards import ShardReport
from repro.service.spec import JobSpec

__all__ = ["RunRecord", "JobExecution", "execute_job", "EventHook", "ExecuteFn"]

#: ``on_event(kind, policy, load, result)`` with kind in
#: {"run_cached", "run_done"} — invoked per run (deterministic spec order
#: for cache hits, completion order for live runs).
EventHook = Callable[[str, str, float, RunResult], None]

#: Signature of :func:`repro.perf.executor.execute_tasks` — injectable so
#: tests can gate/instrument execution without touching the real pool.
ExecuteFn = Callable[..., List[RunResult]]


@dataclass(frozen=True)
class RunRecord:
    """One run's cache outcome inside a job."""

    policy: str
    load: float
    cache_key: Optional[str]
    hit: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "load": self.load,
            "cache_key": self.cache_key,
            "hit": self.hit,
        }


@dataclass(frozen=True)
class JobExecution:
    """Outcome of one executed job."""

    results: Dict[str, List[RunResult]]
    records: List[RunRecord]
    hits: int
    executed: int
    fingerprint: str
    execute_seconds: float
    #: Per-shard layout and timings when the job ran on the sharded batch
    #: path (empty for scalar jobs and injected executors).
    shards: Tuple[ShardReport, ...] = field(default=())

    @property
    def total(self) -> int:
        return len(self.records)


def execute_job(
    spec: JobSpec,
    cache: Optional[RunCache],
    jobs: int = 1,
    execute: Optional[ExecuteFn] = None,
    on_event: Optional[EventHook] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    keyed: Optional[Sequence[KeyedRun]] = None,
) -> JobExecution:
    """Execute one job: cache lookups, pool fan-out, result storage.

    The engine-table entry of ``spec.engine`` runs the misses (unless
    ``execute`` is injected).  Batch's is the sharded
    :func:`repro.perf.executor.run_sweep_batched` path: covered runs are
    split into per-worker sub-slabs scheduled next to scalar-fallback
    tasks on one pool, and the resulting shard layout and per-shard
    timings land in :attr:`JobExecution.shards`.  Cache keys are engine-aware per run —
    batch keyspace for points the vectorized model covers, scalar
    keyspace for fallback points.

    Cache I/O is slab-granular (:func:`repro.perf.executor.run_cached`,
    the loop the load sweeps use): one :meth:`~repro.perf.cache.RunCache.
    get_many` answers every lookup up front (an all-hit replay costs one
    counter flush, not one per run), and fresh results are stored through
    chunked :meth:`~repro.perf.cache.RunCache.put_many` writes.

    ``pool`` is the caller's long-lived worker pool (``None``: a pooled
    run opens its own); ``keyed`` is the tasks' :func:`repro.perf.executor.
    cache_keys`, when the caller already computed them for admission.
    """
    shard_reports: List[ShardReport] = []
    tasks = spec.tasks()
    load_index = {load: li for li, load in enumerate(spec.loads)}
    results: Dict[str, List[Optional[RunResult]]] = {
        p: [None] * len(spec.loads) for p in spec.policies
    }
    hit_flags: List[bool] = [False] * len(tasks)
    start = time.perf_counter()

    def on_result(index: int, result: RunResult, cached: bool) -> None:
        task = tasks[index]
        policy, load = task.config.policy.name, task.workload.load
        hit_flags[index] = cached
        results[policy][load_index[load]] = result
        if on_event is not None:
            on_event("run_cached" if cached else "run_done", policy, load, result)

    _, keys = run_cached(
        tasks,
        cache=cache,
        jobs=jobs,
        engine=spec.engine,
        on_result=on_result,
        on_shard=shard_reports.append,
        execute=execute,
        pool=pool,
        keyed=keyed,
    )
    if cache is not None:
        cache.flush_counters()

    full = {p: cast(List[RunResult], list(rs)) for p, rs in results.items()}
    done_records = [
        RunRecord(t.config.policy.name, t.workload.load, key, hit=hit)
        for t, key, hit in zip(tasks, keys, hit_flags)
    ]
    hits = sum(hit_flags)
    return JobExecution(
        results=full,
        records=done_records,
        hits=hits,
        executed=len(done_records) - hits,
        fingerprint=sweep_fingerprint(full),
        execute_seconds=time.perf_counter() - start,
        shards=tuple(shard_reports),
    )
