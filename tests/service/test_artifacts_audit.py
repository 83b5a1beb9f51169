"""ArtifactStore and AuditLog: persistence, atomicity, corruption."""

import json
import threading

import pytest

from repro.errors import ServiceError
from repro.service.artifacts import (
    MANIFEST_FORMAT,
    ArtifactStore,
    default_artifact_root,
)
from repro.service.audit import AuditLog


def test_write_read_round_trip(tmp_path):
    store = ArtifactStore(tmp_path)
    manifest = {
        "job_id": "j1",
        "job_key": "k" * 64,
        "counts": {"total": 2, "hits": 1, "misses": 1, "executed": 1},
    }
    path = store.write_manifest(manifest)
    assert path == store.manifest_path("j1")
    read = store.read_manifest("j1")
    assert read["manifest_format"] == MANIFEST_FORMAT
    assert read["counts"] == manifest["counts"]
    assert store.list_job_ids() == ["j1"]


def test_manifest_needs_job_id(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ServiceError, match="job_id"):
        store.write_manifest({"counts": {}})


def test_missing_and_corrupt_manifests_raise(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ServiceError, match="no manifest"):
        store.read_manifest("ghost")
    path = store.manifest_path("j2")
    path.parent.mkdir(parents=True)
    path.write_text("{torn", encoding="utf-8")
    with pytest.raises(ServiceError, match="corrupt"):
        store.read_manifest("j2")
    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(ServiceError, match="corrupt"):
        store.read_manifest("j2")


def test_write_leaves_no_temp_files(tmp_path):
    store = ArtifactStore(tmp_path)
    store.write_manifest({"job_id": "j1"})
    store.write_manifest({"job_id": "j1"})  # overwrite is atomic too
    leftovers = list(store.manifest_path("j1").parent.glob("*.tmp"))
    assert leftovers == []


def test_failed_replace_leaves_no_temp_file(monkeypatch, tmp_path):
    """A manifest write that fails at the rename (a full disk) leaves
    neither a manifest nor a temp file behind."""
    import errno
    import os

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    store = ArtifactStore(tmp_path)
    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError):
        store.write_manifest({"job_id": "j1"})
    monkeypatch.undo()
    job_dir = store.manifest_path("j1").parent
    assert list(job_dir.iterdir()) == []


def test_default_root_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("ERAPID_ARTIFACT_DIR", str(tmp_path / "elsewhere"))
    assert default_artifact_root() == tmp_path / "elsewhere"
    monkeypatch.delenv("ERAPID_ARTIFACT_DIR")
    assert default_artifact_root().name == "erapid"


def test_audit_appends_ordered_records(tmp_path):
    log = AuditLog(tmp_path / "audits.jsonl")
    log.append("submitted", job_id="j1")
    log.append("started", job_id="j1")
    rec = log.append("completed", job_id="j1", hits=3)
    assert rec["action"] == "completed" and rec["hits"] == 3
    records = log.read_all()
    assert [r["action"] for r in records] == [
        "submitted", "started", "completed",
    ]
    assert [r["seq"] for r in records] == [0, 1, 2]
    assert all("ts" in r for r in records)


def test_concurrent_appenders_keep_seq_in_file_order(tmp_path):
    log = AuditLog(tmp_path / "audits.jsonl")
    threads, per_thread = 8, 50
    start = threading.Barrier(threads)

    def appender(n):
        start.wait()
        for i in range(per_thread):
            log.append("started", job_id=f"t{n}-{i}")

    pool = [threading.Thread(target=appender, args=(n,)) for n in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    seqs = [r["seq"] for r in log.read_all()]
    assert seqs == list(range(threads * per_thread))


def test_audit_survives_torn_final_line(tmp_path):
    path = tmp_path / "audits.jsonl"
    log = AuditLog(path)
    log.append("submitted", job_id="j1")
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"action": "torn"')  # crash mid-append
    assert [r["action"] for r in log.read_all()] == ["submitted"]


def test_audit_read_missing_file_is_empty(tmp_path):
    assert AuditLog(tmp_path / "nope.jsonl").read_all() == []
