"""Service execution of batch-engine jobs: routing, keyspaces, replay."""

import json

from repro.analysis.equivalence import compare_runs
from repro.perf.cache import RunCache
from repro.service.runner import execute_job
from repro.service.spec import JobSpec


def batch_spec(**overrides):
    fields = dict(
        kind="sweep",
        pattern="complement",
        loads=(0.2, 0.5),
        policies=("P-B", "NP-NB"),
        boards=4,
        nodes_per_board=4,
        warmup=500.0,
        measure=1000.0,
        drain_limit=2000.0,
        engine="batch",
    )
    fields.update(overrides)
    return JobSpec(**fields)


def test_batch_job_runs_on_the_batch_engine(tmp_path):
    cache = RunCache(tmp_path)
    execution = execute_job(batch_spec(), cache, jobs=1)
    assert execution.executed == 4 and execution.hits == 0
    for runs in execution.results.values():
        for result in runs:
            assert result.extra["engine"] == "batch"
    # Entries land in the batch keyspace only.
    stats = cache.by_engine_stats()
    assert stats["batch"]["entries"] == 4
    assert stats["fast"]["entries"] == 0


def test_batch_job_replays_from_cache_bit_identically(tmp_path):
    cache = RunCache(tmp_path)
    first = execute_job(batch_spec(), cache, jobs=1)
    second = execute_job(batch_spec(), cache, jobs=1)
    assert second.hits == 4 and second.executed == 0
    assert second.fingerprint == first.fingerprint


def test_batch_and_fast_jobs_have_disjoint_caches(tmp_path):
    cache = RunCache(tmp_path)
    execute_job(batch_spec(), cache, jobs=1)
    fast = execute_job(batch_spec(engine="fast"), cache, jobs=1)
    # Same work grid, different engine -> no cross-keyspace hits.
    assert fast.hits == 0 and fast.executed == 4
    assert cache.by_engine_stats()["fast"]["entries"] == 4


def test_batch_job_results_match_fast_within_tolerances(tmp_path):
    batch = execute_job(batch_spec(), None, jobs=1)
    fast = execute_job(batch_spec(engine="fast"), None, jobs=1)
    for policy in ("P-B", "NP-NB"):
        report = compare_runs(fast.results[policy], batch.results[policy])
        assert report.ok, report.to_dict()["failures"]


def test_injected_execute_overrides_batch_routing(tmp_path):
    calls = []

    def fake_execute(tasks, jobs=1, on_result=None):
        calls.append(len(tasks))
        results = []
        for i, task in enumerate(tasks):
            from repro.perf.executor import execute_run

            result = execute_run(task)
            results.append(result)
            if on_result is not None:
                on_result(i, result)
        return results

    execution = execute_job(batch_spec(), None, jobs=1, execute=fake_execute)
    assert calls == [4]
    # The injected executor ran the scalar path; nothing claims "batch".
    for runs in execution.results.values():
        for result in runs:
            assert result.extra.get("engine") != "batch"
    assert execution.shards == ()  # shard reports come from the real path


# ----------------------------------------------------------------------
# Sharded parallel execution
# ----------------------------------------------------------------------
def test_sharded_job_is_fingerprint_identical_across_layouts(
    tmp_path, monkeypatch
):
    """jobs and the shard layout are pure scheduling: every layout must
    produce the same sweep fingerprint as single-process execution."""
    import repro.perf.shards as shards

    baseline = execute_job(batch_spec(), None, jobs=1)
    pooled = execute_job(batch_spec(), None, jobs=2)
    # One run per shard: four batch shards on a two-worker pool.
    monkeypatch.setattr(shards, "MIN_SHARD", 1)
    resharded = execute_job(batch_spec(), None, jobs=2)
    assert pooled.fingerprint == baseline.fingerprint
    assert resharded.fingerprint == baseline.fingerprint

    # The shard reports mirror the layout actually executed.
    assert all(s.kind == "batch" for s in baseline.shards)
    assert sum(s.runs for s in baseline.shards) == 4
    assert len(resharded.shards) == 4
    for report in resharded.shards:
        assert report.runs == 1
        assert report.seconds > 0
        assert report.payload_bytes > 0


def test_manifest_records_shard_layout(tmp_path):
    """A batch job run through the real service persists its shard layout
    and per-shard timings in the artifact manifest."""
    from repro.service.artifacts import ArtifactStore
    from repro.service.orchestrator import SweepService

    cache = RunCache(tmp_path / "cache")
    store = ArtifactStore(tmp_path / "store")
    service = SweepService(cache, store, jobs=2).start()
    try:
        handle = service.submit(batch_spec())
        execution = handle.wait(timeout=120)
    finally:
        service.stop()

    assert execution.shards
    status = handle.status()
    assert status["shards"]["total"] == len(execution.shards)
    assert status["shards"]["batch_runs"] == 4

    from pathlib import Path

    manifest = json.loads(Path(status["manifest"]).read_text())
    layout = manifest["shard_layout"]
    assert layout["jobs"] == 2
    assert [s["shard_id"] for s in layout["shards"]] == [
        s.shard_id for s in execution.shards
    ]
    for entry in layout["shards"]:
        assert entry["kind"] == "batch"
        assert entry["runs"] >= 1
        assert entry["seconds"] > 0
