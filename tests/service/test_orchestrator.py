"""SweepService semantics: dedup, priority, backpressure, failure.

These tests run the real scheduler thread but inject a fake ``execute``
function (the :data:`repro.service.runner.ExecuteFn` seam), so they cover
the orchestration contract — one execution for N identical submissions,
interactive-overtakes-bulk, explicit queue-full rejects — in milliseconds
without spawning simulation processes.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import JobFailedError, QueueFullError, ServiceError
from repro.metrics.collector import RunResult
from repro.perf.cache import RunCache
from repro.service.artifacts import ArtifactStore
from repro.service.orchestrator import SweepService
from repro.service.spec import JobSpec

WAIT = 30.0  # generous terminal-state timeout; tests finish in ms


def wait_until(predicate, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError("test predicate never became true")
        time.sleep(0.001)


def fake_result(task):
    """Deterministic fabricated metrics keyed on the task's workload."""
    load = task.workload.load
    return RunResult(
        throughput=load * 0.9,
        offered=load,
        avg_latency=10.0 + load,
        p99_latency=20.0 + load,
        max_latency=30.0 + load,
        power_mw=1000.0 * load,
    )


class FakePool:
    """Injectable execute fn: counts calls, optionally gated on an event."""

    def __init__(self, gate=None, fail=False):
        self.gate = gate
        self.fail = fail
        self.calls = []  # one entry per invocation: list of loads
        self.lock = threading.Lock()

    def __call__(self, tasks, jobs=1, on_result=None):
        if self.gate is not None and not self.gate.wait(timeout=WAIT):
            raise TimeoutError("test gate never opened")
        if self.fail:
            raise RuntimeError("injected pool failure")
        with self.lock:
            self.calls.append([t.workload.load for t in tasks])
        results = [fake_result(t) for t in tasks]
        for i, r in enumerate(results):
            if on_result is not None:
                on_result(i, r)
        return results


def make_service(tmp_path, execute, **kwargs):
    cache = RunCache(tmp_path / "cache")
    store = ArtifactStore(tmp_path / "store")
    service = SweepService(cache, store, execute=execute, **kwargs)
    return service, cache, store


def tiny_spec(**overrides):
    defaults = dict(
        loads=(0.2, 0.4),
        policies=("NP-NB", "P-B"),
        boards=2,
        nodes_per_board=4,
        warmup=200.0,
        measure=600.0,
        drain_limit=1500.0,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def test_n_identical_inflight_submissions_execute_once(tmp_path):
    gate = threading.Event()
    pool = FakePool(gate=gate)
    service, _, store = make_service(tmp_path, pool)
    service.start()
    try:
        spec = tiny_spec()
        first = service.submit(spec)
        # Wait until the scheduler holds the job open inside the gated
        # pool, then pile identical submissions onto it.
        wait_until(lambda: first.state == "running")
        others = [service.submit(tiny_spec()) for _ in range(4)]
        assert all(h.deduped for h in others)
        assert not first.deduped
        assert {h.job_id for h in others} == {first.job_id}

        gate.set()
        executions = [h.wait(timeout=WAIT) for h in [first, *others]]

        # One execution, five identical results.
        assert len(pool.calls) == 1
        assert len({id(e) for e in executions}) == 1
        assert len({e.fingerprint for e in executions}) == 1
        manifest = store.read_manifest(first.job_id)
        assert manifest["subscribers"] == 5
        assert manifest["counts"] == {
            "total": 4, "hits": 0, "misses": 4, "executed": 4,
        }
    finally:
        gate.set()
        service.stop()


def test_resubmit_after_completion_is_all_cache_hits(tmp_path):
    pool = FakePool()
    service, cache, store = make_service(tmp_path, pool)
    service.start()
    try:
        spec = tiny_spec()
        first = service.submit(spec).wait(timeout=WAIT)
        assert first.executed == 4 and first.hits == 0

        again = service.submit(tiny_spec())
        assert not again.deduped  # the first job already left the table
        second = again.wait(timeout=WAIT)

        assert second.hits == 4 and second.executed == 0
        assert second.fingerprint == first.fingerprint
        manifest = store.read_manifest(again.job_id)
        assert manifest["counts"] == {
            "total": 4, "hits": 4, "misses": 0, "executed": 0,
        }
        assert all(r["hit"] for r in manifest["runs"])
        assert manifest["sweep_fingerprint"] == first.fingerprint
        # The pool saw work exactly once (the second call had no tasks).
        assert [c for c in pool.calls if c] == [[0.2, 0.4, 0.2, 0.4]]
        assert cache.entry_count() == 4
    finally:
        service.stop()


def test_interactive_overtakes_queued_bulk(tmp_path):
    gate = threading.Event()
    pool = FakePool(gate=gate)
    service, _, _ = make_service(tmp_path, pool, queue_depth=8)
    service.start()
    try:
        blocker = service.submit(tiny_spec())
        wait_until(lambda: blocker.state == "running")
        bulk = service.submit(tiny_spec(loads=(0.3,), priority="bulk"))
        inter = service.submit(
            tiny_spec(loads=(0.7,), priority="interactive")
        )
        gate.set()
        bulk.wait(timeout=WAIT)
        inter.wait(timeout=WAIT)
        # Call order: blocker first, then the interactive job overtakes
        # the earlier-submitted bulk job.
        assert pool.calls[0] == [0.2, 0.4, 0.2, 0.4]
        assert pool.calls[1] == [0.7, 0.7]
        assert pool.calls[2] == [0.3, 0.3]
    finally:
        gate.set()
        service.stop()


def test_full_queue_rejects_with_audit_record(tmp_path):
    gate = threading.Event()
    pool = FakePool(gate=gate)
    service, _, _ = make_service(tmp_path, pool, queue_depth=1)
    service.start()
    try:
        running = service.submit(tiny_spec())
        wait_until(lambda: running.state == "running")
        service.submit(tiny_spec(loads=(0.3,)))  # fills the queue
        with pytest.raises(QueueFullError):
            service.submit(tiny_spec(loads=(0.5,)))
        actions = [r["action"] for r in service.audit.read_all()]
        assert "rejected" in actions
    finally:
        gate.set()
        service.stop()


def test_failed_job_raises_and_audits(tmp_path):
    pool = FakePool(fail=True)
    service, _, _ = make_service(tmp_path, pool)
    service.start()
    try:
        handle = service.submit(tiny_spec())
        with pytest.raises(JobFailedError, match="injected pool failure"):
            handle.wait(timeout=WAIT)
        assert handle.state == "failed"
        assert service.drain(timeout=WAIT)
        actions = [r["action"] for r in service.audit.read_all()]
        assert actions.count("failed") == 1
        assert "completed" not in actions
    finally:
        service.stop()


def test_stream_events_sees_every_run(tmp_path):
    pool = FakePool()
    service, _, _ = make_service(tmp_path, pool)
    service.start()
    try:
        handle = service.submit(tiny_spec())
        events = list(handle.stream_events(timeout=WAIT))
        assert len(events) == 4
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert {e["kind"] for e in events} == {"run_done"}
        assert handle.state == "completed"
    finally:
        service.stop()


def test_submit_after_stop_is_refused(tmp_path):
    service, _, _ = make_service(tmp_path, FakePool())
    service.start()
    service.stop()
    with pytest.raises(ServiceError, match="stopping"):
        service.submit(tiny_spec())


def test_audit_trail_orders_lifecycle(tmp_path):
    pool = FakePool()
    service, _, _ = make_service(tmp_path, pool)
    service.start()
    try:
        handle = service.submit(tiny_spec())
        handle.wait(timeout=WAIT)
    finally:
        service.stop()
    actions = [r["action"] for r in service.audit.read_all()]
    assert actions == ["submitted", "started", "completed"]


# ----------------------------------------------------------------------
# Concurrent, key-disjoint scheduling
# ----------------------------------------------------------------------
class GatedPool(FakePool):
    """FakePool that records how many calls are inside it at once."""

    def __init__(self, gate=None, hold=0.0):
        super().__init__(gate=gate)
        self.hold = hold
        self.active = 0
        self.max_active = 0

    def __call__(self, tasks, jobs=1, on_result=None):
        with self.lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            time.sleep(self.hold)
            return super().__call__(tasks, jobs=jobs, on_result=on_result)
        finally:
            with self.lock:
                self.active -= 1


def started_order(service):
    return [
        r["job_id"] for r in service.audit.read_all() if r["action"] == "started"
    ]


def test_two_key_disjoint_jobs_run_at_once(tmp_path):
    gate = threading.Event()
    pool = GatedPool(gate=gate)
    service, _, _ = make_service(tmp_path, pool, jobs=2)
    service.start()
    try:
        first = service.submit(tiny_spec(loads=(0.2,)))
        second = service.submit(tiny_spec(loads=(0.7,)))
        wait_until(lambda: pool.active == 2)
        assert first.state == second.state == "running"
        gate.set()
        assert first.wait(timeout=WAIT).executed == 2
        assert second.wait(timeout=WAIT).executed == 2
    finally:
        gate.set()
        service.stop()


def test_overlapping_job_waits_for_its_predecessor(tmp_path):
    gate = threading.Event()
    pool = GatedPool(gate=gate)
    service, _, store = make_service(tmp_path, pool, jobs=2)
    service.start()
    try:
        first = service.submit(tiny_spec(loads=(0.2, 0.4)))
        wait_until(lambda: pool.active == 1)
        overlap = service.submit(tiny_spec(loads=(0.4, 0.6)))
        # Popped, but held back: it shares the 0.4 runs with ``first``.
        wait_until(lambda: len(service._queue) == 0)
        time.sleep(0.05)
        assert overlap.state == "queued"
        assert pool.active == 1
        gate.set()
        first.wait(timeout=WAIT)
        execution = overlap.wait(timeout=WAIT)
        assert (execution.hits, execution.executed) == (2, 2)
        manifest = store.read_manifest(overlap.job_id)
        assert {r["load"] for r in manifest["runs"] if r["hit"]} == {0.4}
        assert pool.max_active == 1
        actions = [(r["action"], r["job_id"]) for r in service.audit.read_all()]
        assert actions.index(("completed", first.job_id)) < actions.index(
            ("started", overlap.job_id)
        )
    finally:
        gate.set()
        service.stop()


def test_one_job_wide_service_never_overlaps(tmp_path):
    pool = GatedPool(hold=0.02)
    service, _, _ = make_service(tmp_path, pool, jobs=1)
    service.start()
    try:
        handles = [
            service.submit(tiny_spec(loads=(load,))) for load in (0.1, 0.3, 0.5)
        ]
        for h in handles:
            h.wait(timeout=WAIT)
    finally:
        service.stop()
    assert pool.max_active == 1
    assert started_order(service) == [h.job_id for h in handles]


def real_specs():
    """Fresh, overlapping and duplicate jobs on both cached engines."""
    return [
        tiny_spec(loads=(0.2, 0.5)),
        tiny_spec(loads=(0.3,), engine="batch"),
        tiny_spec(loads=(0.5, 0.8)),
        tiny_spec(loads=(0.3, 0.6), engine="batch"),
        tiny_spec(loads=(0.2, 0.5)),
    ]


def serve_all(tmp_path, jobs, specs):
    service = SweepService(
        RunCache(tmp_path / "cache"), ArtifactStore(tmp_path / "store"), jobs=jobs
    ).start()
    try:
        handles = [service.submit(spec) for spec in specs]
        return {h.key: h.wait(timeout=120).fingerprint for h in handles}
    finally:
        service.stop()


def test_pooled_service_builds_one_pool_and_matches_serial(tmp_path, monkeypatch):
    import repro.perf.executor as executor_mod

    built = []

    class CountingPool(executor_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", CountingPool)
    specs = real_specs()
    pooled = serve_all(tmp_path / "pooled", 2, specs)
    assert built == [(2,)]
    serial = serve_all(tmp_path / "serial", 1, specs)
    assert built == [(2,)]
    assert pooled == serial
    assert len(pooled) == 4


def test_broken_pool_fails_one_job_and_is_replaced(tmp_path):
    entered, release = threading.Event(), threading.Event()
    service = SweepService(
        RunCache(tmp_path / "cache"), ArtifactStore(tmp_path / "store"), jobs=2
    )
    doomed_spec = tiny_spec(loads=(0.2, 0.4))

    def gate(job):
        # Hold the doomed job between "started" and its first pool submit.
        doomed_running = job.key == doomed_spec.job_key() and job.state == "running"
        if doomed_running and not entered.is_set():
            entered.set()
            assert release.wait(timeout=WAIT)

    service.on_update = gate
    service.start()
    try:
        first_pool = service._pool
        doomed = service.submit(doomed_spec)
        assert entered.wait(timeout=WAIT)
        os.kill(next(iter(first_pool._processes)), signal.SIGKILL)
        wait_until(lambda: first_pool._broken)
        release.set()
        with pytest.raises(JobFailedError, match="BrokenProcessPool"):
            doomed.wait(timeout=WAIT)

        after = service.submit(tiny_spec(loads=(0.6, 0.8))).wait(timeout=120)
        assert after.executed == 4
        assert service._pool is not first_pool
    finally:
        release.set()
        service.stop()
