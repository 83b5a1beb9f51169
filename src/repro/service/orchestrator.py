"""The sweep service: async job orchestration over the run cache.

:class:`SweepService` is the long-running heart of ``erapid serve``.
Submission is non-blocking: :meth:`SweepService.submit` validates the
spec, dedupes it, and returns a :class:`JobHandle` immediately; a
dedicated scheduler thread drains the bounded priority queue and runs up
to ``jobs`` jobs side by side, each on a thread of its own
(:mod:`repro.service.runner`), all on the one worker pool the service
opens at :meth:`SweepService.start`.  Subscribers stream per-run progress
events (:meth:`JobHandle.stream_events`) or block for the final result
(:meth:`JobHandle.wait`).

Admission is key-disjoint: the scheduler pops jobs in (priority, FIFO)
order, one whenever a slot is free, and starts a popped job only once its
run-cache keys share none with any running job's — otherwise it waits for
those jobs to finish.  Every run therefore executes at most once, and the
job that pays for a shared run is the one that would have paid for it
under one-at-a-time execution; results are bit-identical either way.
A job that finds the pool broken fails with that reason, and the service
opens a fresh pool before it starts the next job.

Dedup happens at two levels:

* **in-flight** — a submission whose :meth:`~repro.service.spec.JobSpec.job_key`
  matches a queued or running job attaches to that job as an extra
  subscriber: one execution, N identical results;
* **on-disk** — a fresh job answers every run it can from the
  content-addressed :class:`~repro.perf.cache.RunCache`, so resubmitting
  completed work executes zero runs and its manifest records 100% hits.

Backpressure is explicit: a full queue raises
:class:`~repro.errors.QueueFullError` at submission (audited as
``rejected``).  Priorities are two-level — ``interactive`` overtakes
queued ``bulk`` work — and fixed at first submission (a duplicate's
priority does not reorder an already-queued job).

Every lifecycle transition lands in the append-only audit log, and every
completed job writes a manifest into the artifact store, so past work is
replayable (resubmit the manifest's ``spec``) and attributable.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.errors import JobFailedError, QueueFullError, ServiceError
from repro.metrics.collector import RunResult
from repro.perf.cache import RunCache
from repro.perf.executor import KeyedRun, cache_keys, open_pool
from repro.service.artifacts import ArtifactStore
from repro.service.audit import AuditLog
from repro.service.queue import BoundedJobQueue
from repro.service.runner import ExecuteFn, JobExecution, execute_job
from repro.service.spec import JobSpec

__all__ = ["SweepService", "Job", "JobHandle", "JOB_TERMINAL_STATES"]

#: States a job can never leave.
JOB_TERMINAL_STATES = frozenset({"completed", "failed"})

#: ``on_update(job)`` — invoked (outside the service lock) after every
#: state transition and progress event; the spool front end mirrors job
#: status to disk from here.
UpdateHook = Callable[["Job"], None]

_job_counter = itertools.count(1)


class Job:
    """Mutable state of one deduplicated unit of service work."""

    def __init__(self, spec: JobSpec, key: str, job_id: str) -> None:
        self.spec = spec
        self.key = key
        self.job_id = job_id
        self.state = "queued"
        self.subscribers = 1
        self.events: List[Dict[str, Any]] = []
        self.execution: Optional[JobExecution] = None
        self.error: Optional[str] = None
        self.manifest_path: Optional[str] = None
        self.submitted_ts = time.time()
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None

    @property
    def runs_done(self) -> int:
        return sum(
            1 for e in self.events if e["kind"] in ("run_cached", "run_done")
        )

    def status(self) -> Dict[str, Any]:
        """Plain-data snapshot (callers must hold the service lock)."""
        status: Dict[str, Any] = {
            "job_id": self.job_id,
            "job_key": self.key,
            "kind": self.spec.kind,
            "priority": self.spec.priority,
            "state": self.state,
            "subscribers": self.subscribers,
            "runs_total": self.spec.total_runs,
            "runs_done": self.runs_done,
            "events": len(self.events),
            "manifest": self.manifest_path,
            "error": self.error,
        }
        if self.execution is not None:
            status["counts"] = {
                "total": self.execution.total,
                "hits": self.execution.hits,
                "executed": self.execution.executed,
            }
            status["sweep_fingerprint"] = self.execution.fingerprint
            if self.execution.shards:
                shards = self.execution.shards
                batch = [s for s in shards if s.kind == "batch"]
                status["shards"] = {
                    "total": len(shards),
                    "batch": len(batch),
                    "batch_runs": sum(s.runs for s in batch),
                    "max_shard_seconds": max(s.seconds for s in shards),
                }
        return status


class JobHandle:
    """A subscriber's view of a job (shared across deduped submissions)."""

    def __init__(
        self, service: "SweepService", job: Job, deduped: bool
    ) -> None:
        self._service = service
        self._job = job
        #: Whether this submission attached to an already-pending job.
        self.deduped = deduped

    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def key(self) -> str:
        return self._job.key

    @property
    def state(self) -> str:
        with self._service._cond:
            return self._job.state

    def status(self) -> Dict[str, Any]:
        with self._service._cond:
            return self._job.status()

    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of the progress events emitted so far."""
        with self._service._cond:
            return list(self._job.events)

    def stream_events(
        self, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield progress events as they arrive until the job finishes.

        ``timeout`` bounds each *wait between events*; expiry raises
        :class:`TimeoutError` (a stuck stream is a bug, not an idle one).
        """
        cond = self._service._cond
        next_index = 0
        while True:
            with cond:
                if not cond.wait_for(
                    lambda: len(self._job.events) > next_index
                    or self._job.state in JOB_TERMINAL_STATES,
                    timeout=timeout,
                ):
                    raise TimeoutError(
                        f"no event from job {self._job.job_id} within "
                        f"{timeout}s"
                    )
                batch = list(self._job.events[next_index:])
                next_index += len(batch)
                done = (
                    self._job.state in JOB_TERMINAL_STATES
                    and next_index == len(self._job.events)
                )
            yield from batch
            if done:
                return

    def wait(self, timeout: Optional[float] = None) -> JobExecution:
        """Block until the job finishes; returns its execution.

        Raises :class:`JobFailedError` if the job failed and
        :class:`TimeoutError` on expiry.
        """
        with self._service._cond:
            if not self._service._cond.wait_for(
                lambda: self._job.state in JOB_TERMINAL_STATES,
                timeout=timeout,
            ):
                raise TimeoutError(
                    f"job {self._job.job_id} still {self._job.state} after "
                    f"{timeout}s"
                )
            if self._job.state == "failed":
                raise JobFailedError(
                    f"job {self._job.job_id} failed: {self._job.error}"
                )
            assert self._job.execution is not None
            return self._job.execution


class SweepService:
    """Job orchestrator: bounded queue, dedup, and a scheduler that runs
    up to ``jobs`` key-disjoint jobs at once on one worker pool.

    ``jobs`` is both the pool's width and the cap on concurrent jobs;
    ``jobs=1`` opens no pool and runs one job at a time, inline.
    """

    def __init__(
        self,
        cache: RunCache,
        store: ArtifactStore,
        jobs: int = 1,
        queue_depth: int = 16,
        execute: Optional[ExecuteFn] = None,
        on_update: Optional[UpdateHook] = None,
    ) -> None:
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.store = store
        self.jobs = jobs
        self.audit = AuditLog(store.audit_path)
        self.on_update = on_update
        self._execute = execute
        self._queue: BoundedJobQueue[Job] = BoundedJobQueue(queue_depth)
        self._cond = threading.Condition()
        #: job_key -> queued/running job (dedup targets).
        self._pending: Dict[str, Job] = {}
        #: job_id -> job, every job this service has seen.
        self._history: Dict[str, Job] = {}
        #: job_key -> run-cache keys of every running job (admission).
        self._running: Dict[str, FrozenSet[str]] = {}
        self._job_threads: List[threading.Thread] = []
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Set by a job that saw :class:`BrokenProcessPool`; the scheduler
        #: replaces the pool before it starts another job.
        self._pool_broken = False
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SweepService":
        """Open the worker pool (``jobs > 1``), then start the scheduler.

        The pool's workers are forked here, before any thread of this
        service exists, so no fork happens while a job thread holds a lock.
        """
        if self._thread is not None:
            raise ServiceError("service already started")
        if self.jobs > 1:
            self._pool = open_pool(self.jobs)
        self._thread = threading.Thread(
            target=self._scheduler_loop, name="erapid-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Finish queued and running jobs, then stop the scheduler; the
        pool is shut down after the last job ends."""
        with self._cond:
            self._stopping = True
        self._queue.close()
        if wait and self._thread is not None:
            self._thread.join()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._pending, timeout=timeout
            )

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Enqueue ``spec`` (or attach to its in-flight duplicate).

        Raises :class:`QueueFullError` under backpressure and
        :class:`ServiceError` after :meth:`stop`.
        """
        key = spec.job_key()
        rejection: Optional[QueueFullError] = None
        with self._cond:
            if self._stopping:
                raise ServiceError("service is stopping; submission refused")
            pending = self._pending.get(key)
            if pending is not None:
                pending.subscribers += 1
                job = pending
                self.audit.append(
                    "deduped",
                    job_id=job.job_id,
                    job_key=key,
                    priority=spec.priority,
                    subscribers=job.subscribers,
                )
            else:
                job = Job(
                    spec, key, f"j{time.time_ns():x}-{next(_job_counter)}"
                )
                try:
                    # Nested queue lock: push never waits on the service
                    # condition, so the ordering is deadlock-free.  Held
                    # together so a racing duplicate submission cannot
                    # double-enqueue the same key.
                    self._queue.push(spec.priority_rank(), job)
                except QueueFullError as exc:
                    rejection = exc
                else:
                    self._pending[key] = job
                    self._history[job.job_id] = job
                    # Audited while the job is still lock-protected so the
                    # log's "submitted" always precedes its "started".
                    self.audit.append(
                        "submitted",
                        job_id=job.job_id,
                        job_key=key,
                        kind=spec.kind,
                        priority=spec.priority,
                        runs=spec.total_runs,
                    )
        if rejection is not None:
            self.audit.append(
                "rejected", job_key=key, priority=spec.priority,
                reason="queue full",
            )
            raise rejection
        self._notify(job)
        return JobHandle(self, job, deduped=pending is not None)

    def job(self, job_id: str) -> Optional[JobHandle]:
        """Handle for a job this service has seen (by id), if any."""
        with self._cond:
            found = self._history.get(job_id)
        return None if found is None else JobHandle(self, found, deduped=False)

    def snapshot(self, job: Job) -> Dict[str, Any]:
        """Thread-safe plain-data status snapshot of ``job``."""
        with self._cond:
            return job.status()

    # ------------------------------------------------------------------
    # Scheduler (dedicated thread)
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    # Pop only into a free slot: a job leaves the priority
                    # queue as late as it can, so a later interactive job
                    # still overtakes it.
                    self._cond.wait_for(lambda: len(self._running) < self.jobs)
                    if self._stopping and not self._pending:
                        return
                job = self._queue.pop(timeout=0.1)
                if job is not None:
                    self._admit(job)
        finally:
            for thread in self._job_threads:
                thread.join()
            if self._pool is not None:
                self._pool.shutdown()

    def _admit(self, job: Job) -> None:
        """Start ``job`` once its keys are disjoint from every running
        job's (and, after a broken pool, once no job runs and the pool is
        replaced)."""
        keyed: Optional[List[KeyedRun]]
        try:
            keyed = cache_keys(job.spec.tasks(), self.cache, job.spec.engine)
        except Exception:  # noqa: BLE001 - execute_job raises it as the job's failure
            keyed = None
        keys = frozenset(k for k, _ in keyed or ())
        with self._cond:
            self._cond.wait_for(
                lambda: not self._running
                if self._pool_broken
                else all(keys.isdisjoint(k) for k in self._running.values())
            )
            replace = self._pool_broken
            self._pool_broken = False
        if replace and self._pool is not None:
            self._pool.shutdown()
            self._pool = open_pool(self.jobs)
        with self._cond:
            self._running[job.key] = keys
            job.state = "running"
            job.started_ts = time.time()
        thread = threading.Thread(
            target=self._run_job,
            args=(job, keyed, self._pool),
            name=f"erapid-job-{job.job_id}",
            daemon=True,
        )
        self._job_threads = [t for t in self._job_threads if t.is_alive()]
        self._job_threads.append(thread)
        thread.start()

    def _run_job(
        self,
        job: Job,
        keyed: Optional[Sequence[KeyedRun]],
        pool: Optional[ProcessPoolExecutor],
    ) -> None:
        self.audit.append(
            "started", job_id=job.job_id, job_key=job.key,
            priority=job.spec.priority,
        )
        self._notify(job)

        def on_event(
            kind: str, policy: str, load: float, result: RunResult
        ) -> None:
            with self._cond:
                job.events.append(
                    {
                        "seq": len(job.events),
                        "kind": kind,
                        "policy": policy,
                        "load": load,
                        "throughput": result.throughput,
                        "power_mw": result.power_mw,
                    }
                )
                self._cond.notify_all()
            self._notify(job)

        # Terminal bookkeeping (audit record, mirrored status) happens
        # *before* the job leaves ``_pending``: ``drain()`` returning and
        # ``wait()`` waking are the service's "done" signals, so the
        # persistent record must already be on disk by then.
        try:
            execution = execute_job(
                job.spec,
                self.cache,
                jobs=self.jobs,
                execute=self._execute,
                on_event=on_event,
                pool=pool,
                keyed=keyed,
            )
            manifest = self.store.write_manifest(
                self._manifest(job, execution)
            )
            with self._cond:
                job.execution = execution
                job.manifest_path = str(manifest)
                job.state = "completed"
                job.finished_ts = time.time()
            self.audit.append(
                "completed",
                job_id=job.job_id,
                job_key=job.key,
                hits=execution.hits,
                executed=execution.executed,
                total=execution.total,
                subscribers=job.subscribers,
                fingerprint=execution.fingerprint,
            )
        except Exception as exc:  # noqa: BLE001 - jobs must never kill the loop
            with self._cond:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                job.finished_ts = time.time()
                if isinstance(exc, BrokenProcessPool):
                    self._pool_broken = True
            self.audit.append(
                "failed", job_id=job.job_id, job_key=job.key, error=job.error
            )
        self._notify(job)
        with self._cond:
            del self._pending[job.key]
            del self._running[job.key]
            self._cond.notify_all()

    def _manifest(self, job: Job, execution: JobExecution) -> Dict[str, Any]:
        from repro.sim.kernel import KERNEL_VERSION

        manifest = {
            "job_id": job.job_id,
            "job_key": job.key,
            "kind": job.spec.kind,
            "priority": job.spec.priority,
            "spec": job.spec.to_dict(),
            "kernel_version": KERNEL_VERSION,
            "sweep_fingerprint": execution.fingerprint,
            "runs": [r.to_dict() for r in execution.records],
            "counts": {
                "total": execution.total,
                "hits": execution.hits,
                "misses": execution.total - execution.hits,
                "executed": execution.executed,
            },
            "timings": {
                "submitted_at": job.submitted_ts,
                "started_at": job.started_ts,
                "finished_at": time.time(),
                "execute_seconds": execution.execute_seconds,
            },
            "subscribers": job.subscribers,
        }
        if execution.shards:
            # Shard layout + per-shard timings of the sharded batch path
            # (absent for scalar jobs), so a job's parallel execution is
            # auditable shard by shard.
            manifest["shard_layout"] = {
                "jobs": self.jobs,
                "shards": [s.to_dict() for s in execution.shards],
            }
        return manifest

    def _notify(self, job: Job) -> None:
        """Run the update hook outside the lock (it does file I/O)."""
        hook = self.on_update
        if hook is not None:
            hook(job)
