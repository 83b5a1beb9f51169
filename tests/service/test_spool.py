"""Spool front end: atomic submissions, status mirroring, bad input."""

import json
import threading

from repro.metrics.collector import RunResult
from repro.perf.cache import RunCache
from repro.service.artifacts import ArtifactStore
from repro.service.orchestrator import SweepService
from repro.service import spool as spool_mod
from repro.service.spec import JobSpec
from repro.service.spool import (
    SpoolServer,
    list_statuses,
    read_status,
    status_path,
    submit_to_spool,
)


def fake_execute(tasks, jobs=1, on_result=None):
    results = []
    for i, t in enumerate(tasks):
        load = t.workload.load
        r = RunResult(
            throughput=load * 0.9,
            offered=load,
            avg_latency=10.0,
            p99_latency=20.0,
            max_latency=30.0,
            power_mw=1000.0 * load,
        )
        results.append(r)
        if on_result is not None:
            on_result(i, r)
    return results


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


def make_server(tmp_path, **service_kwargs):
    service = SweepService(
        RunCache(tmp_path / "cache"),
        ArtifactStore(tmp_path / "store"),
        execute=fake_execute,
        **service_kwargs,
    ).start()
    return SpoolServer(tmp_path / "spool", service), service


def test_submit_serve_status_round_trip(tmp_path):
    server, service = make_server(tmp_path)
    try:
        spec = tiny_spec()
        key = submit_to_spool(tmp_path / "spool", spec)
        assert key == spec.job_key()
        server.serve_once(timeout=60)

        status = read_status(tmp_path / "spool", key)
        assert status is not None
        assert status["state"] == "completed"
        assert status["counts"] == {"total": 4, "hits": 0, "executed": 4}
        assert status["runs_done"] == 4
        # The incoming spec file was consumed.
        assert not list((server.spool / "incoming").glob("*.json"))
        assert [s["job_key"] for s in list_statuses(tmp_path / "spool")] == [
            key
        ]
    finally:
        service.stop()


def test_second_serve_is_all_cache_hits(tmp_path):
    server, service = make_server(tmp_path)
    try:
        key = submit_to_spool(tmp_path / "spool", tiny_spec())
        server.serve_once(timeout=60)
        first = read_status(tmp_path / "spool", key)

        submit_to_spool(tmp_path / "spool", tiny_spec())
        server.serve_once(timeout=60)
        second = read_status(tmp_path / "spool", key)

        assert second["counts"] == {"total": 4, "hits": 4, "executed": 0}
        assert second["sweep_fingerprint"] == first["sweep_fingerprint"]
        assert second["job_id"] != first["job_id"]
    finally:
        service.stop()


def test_invalid_submission_becomes_invalid_status(tmp_path):
    server, service = make_server(tmp_path)
    try:
        bad = server.spool / "incoming" / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}), encoding="utf-8")
        assert server.scan_once() == 1
        status = read_status(tmp_path / "spool", "bad")
        assert status["state"] == "invalid"
        assert "mystery" in status["error"]
        assert not bad.exists()
    finally:
        service.stop()


def test_unparseable_submission_becomes_invalid_status(tmp_path):
    server, service = make_server(tmp_path)
    try:
        bad = server.spool / "incoming" / "torn.json"
        bad.write_text('{"kind": "swe', encoding="utf-8")
        server.scan_once()
        assert read_status(tmp_path / "spool", "torn")["state"] == "invalid"
    finally:
        service.stop()


def test_failed_replace_leaves_no_temp_file(monkeypatch, tmp_path):
    """A submission that fails at the rename (a full disk) leaves neither
    a spec nor a temp file in the spool."""
    import errno
    import os

    import pytest

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError):
        submit_to_spool(tmp_path / "spool", tiny_spec())
    monkeypatch.undo()
    assert list((tmp_path / "spool" / "incoming").iterdir()) == []


def test_status_filename_is_the_job_key(tmp_path):
    spec = tiny_spec()
    path = status_path(tmp_path / "spool", spec.job_key())
    assert path.name == f"{spec.job_key()}.json"
    assert read_status(tmp_path / "spool", spec.job_key()) is None


def test_inflight_duplicates_in_spool_dedupe(tmp_path):
    server, service = make_server(tmp_path)
    try:
        submit_to_spool(tmp_path / "spool", tiny_spec())
        submit_to_spool(tmp_path / "spool", tiny_spec())
        submit_to_spool(tmp_path / "spool", tiny_spec())
        server.serve_once(timeout=60)
        statuses = list_statuses(tmp_path / "spool")
        assert len(statuses) == 1
        assert statuses[0]["state"] == "completed"
        actions = [r["action"] for r in service.audit.read_all()]
        # Whether the duplicates attach in-flight or hit the cache as
        # fresh jobs depends on scan/execute interleaving, but work must
        # never run twice: the pool executed exactly 4 tasks total.
        assert actions.count("submitted") + actions.count("deduped") == 3
        stats = service.cache.persistent_stats()
        assert stats["puts"] == 4
    finally:
        service.stop()


def test_status_mirror_never_goes_back_to_a_stale_snapshot(
    monkeypatch, tmp_path
):
    """A writer paused between its snapshot and its file replace (the scan
    thread's dedup notify) must not land after the job thread's terminal
    write: the mirror ends in the terminal state."""
    service = SweepService(
        RunCache(tmp_path / "cache"),
        ArtifactStore(tmp_path / "store"),
        execute=fake_execute,
    )  # never started: the test drives the job's state by hand
    server = SpoolServer(tmp_path / "spool", service)
    handle = service.submit(tiny_spec())
    job = service._history[handle.job_id]

    paused, resume = threading.Event(), threading.Event()
    real_write = spool_mod._atomic_write_json

    def write(path, payload):
        if threading.current_thread().name == "stale-writer":
            paused.set()
            assert resume.wait(timeout=30)
        real_write(path, payload)

    monkeypatch.setattr(spool_mod, "_atomic_write_json", write)
    stale = threading.Thread(
        target=server._write_status, args=(job,), name="stale-writer"
    )
    stale.start()
    assert paused.wait(timeout=30)
    with service._cond:
        job.state, job.error = "failed", "injected"
    terminal = threading.Thread(target=server._write_status, args=(job,))
    terminal.start()
    terminal.join(timeout=0.2)  # unserialised, it would finish here
    resume.set()
    stale.join(timeout=30)
    terminal.join(timeout=30)
    assert read_status(tmp_path / "spool", job.key)["state"] == "failed"


def test_a_killed_server_loses_no_queued_job(tmp_path):
    """A server dropped with two jobs queued leaves both specs in the
    spool; a new server on the same spool completes both, with the
    fingerprints of an undisturbed server, and serve_once returns."""
    specs = [tiny_spec(), tiny_spec(loads=(0.3,))]
    undisturbed, service = make_server(tmp_path / "undisturbed")
    try:
        for spec in specs:
            submit_to_spool(undisturbed.spool, spec)
        undisturbed.serve_once(timeout=60)
    finally:
        service.stop()
    want = {
        s.job_key(): read_status(undisturbed.spool, s.job_key())["sweep_fingerprint"]
        for s in specs
    }

    spool = tmp_path / "spool"
    killed = SweepService(
        RunCache(tmp_path / "cache"),
        ArtifactStore(tmp_path / "store"),
        execute=fake_execute,
    )  # never started: its jobs stay queued until the server is dropped
    for spec in specs:
        submit_to_spool(spool, spec)
    assert SpoolServer(spool, killed).scan_once() == 2
    assert not list((spool / "incoming").glob("*.json"))
    assert len(list((spool / "accepted").glob("*.json"))) == 2
    for spec in specs:
        assert read_status(spool, spec.job_key())["state"] == "queued"
    del killed

    server, service = make_server(tmp_path)
    try:
        server.serve_once(timeout=60)
        for spec in specs:
            status = read_status(spool, spec.job_key())
            assert status["state"] == "completed"
            assert status["sweep_fingerprint"] == want[spec.job_key()]
        assert not list((spool / "accepted").glob("*.json"))
    finally:
        service.stop()


def test_an_accepted_spec_with_a_terminal_status_is_not_rerun(tmp_path):
    """A spec left behind after its job's terminal status was written (a
    kill between the two) is deleted by the next server, not re-run."""
    server, service = make_server(tmp_path)
    try:
        spec = tiny_spec()
        submit_to_spool(tmp_path / "spool", spec)
        server.serve_once(timeout=60)
        leftover = server.spool / "accepted" / "leftover.json"
        leftover.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    finally:
        service.stop()

    server, service = make_server(tmp_path)
    try:
        server.serve_once(timeout=60)
        assert not leftover.exists()
        # The audit log (shared with the first server) holds one job.
        actions = [r["action"] for r in service.audit.read_all()]
        assert actions.count("submitted") == 1
    finally:
        service.stop()


def test_a_spec_stays_accepted_until_its_job_ends(tmp_path):
    service = SweepService(
        RunCache(tmp_path / "cache"),
        ArtifactStore(tmp_path / "store"),
        execute=fake_execute,
    )
    server = SpoolServer(tmp_path / "spool", service)
    submit_to_spool(tmp_path / "spool", tiny_spec())
    server.scan_once()
    # Queued, not yet run: the spec is in the spool.
    assert len(list((server.spool / "accepted").glob("*.json"))) == 1
    service.start()
    try:
        server.serve_once(timeout=60)
        assert not list((server.spool / "accepted").glob("*.json"))
    finally:
        service.stop()
