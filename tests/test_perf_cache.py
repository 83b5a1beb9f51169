"""Content-addressed run cache: hits, misses, structural invalidation."""

import hashlib
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import sweep_fingerprint
from repro.core.config import ControlParams, ERapidConfig
from repro.core.policies import POLICIES
from repro.errors import CacheError
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.network.topology import ERapidTopology
from repro.perf.cache import RunCache, default_cache_dir, run_cache_key
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=200, measure=600, drain_limit=1500)


@pytest.fixture()
def run_desc():
    config = ERapidConfig(
        topology=ERapidTopology(boards=2, nodes_per_board=4)
    ).with_policy(POLICIES["P-B"])
    return config, WorkloadSpec("uniform", 0.3, seed=1), PLAN


def fake_result(**overrides):
    fields = dict(
        throughput=0.5,
        offered=0.6,
        avg_latency=123.4,
        p99_latency=456.7,
        max_latency=789.0,
        power_mw=1000.0,
        labeled_injected=10,
        labeled_delivered=9,
        delivered_measure=100,
        extra={"grants": 3},
    )
    fields.update(overrides)
    return RunResult(**fields)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_key_is_deterministic_and_config_sensitive(run_desc):
    config, workload, plan = run_desc
    key = run_cache_key(config, workload, plan)
    assert key == run_cache_key(config, workload, plan)
    # Any field change → different key.
    other_cfg = config.with_policy(POLICIES["NP-NB"])
    assert run_cache_key(other_cfg, workload, plan) != key
    other_wl = WorkloadSpec("uniform", 0.4, seed=1)
    assert run_cache_key(config, other_wl, plan) != key
    other_ctl = ERapidConfig(
        topology=config.topology,
        policy=config.policy,
        control=ControlParams(window_cycles=500),
    )
    assert run_cache_key(other_ctl, workload, plan) != key


def test_key_invalidated_by_kernel_version_bump(run_desc, monkeypatch):
    config, workload, plan = run_desc
    before = run_cache_key(config, workload, plan)
    monkeypatch.setattr("repro.sim.kernel.KERNEL_VERSION", "test-bump")
    assert run_cache_key(config, workload, plan) != before


def test_unknown_object_raises_cache_error(run_desc):
    """Both walks refuse what they were not taught, anywhere in the run,
    inside a key scope as outside one (a refused frozen object is never
    memoised, so it is refused again)."""
    from dataclasses import replace

    from repro.perf.cache import _canonical, _encode, key_scope

    with pytest.raises(CacheError):
        _canonical(object())
    config, _, plan = run_desc
    for value in (object(), {1, 2}, b"bytes", complex(1, 2)):
        workload = WorkloadSpec("uniform", 0.3, seed=value)
        for walk in (_canonical, _encode):
            with pytest.raises(CacheError, match="cannot fingerprint"):
                walk(workload)
        with pytest.raises(CacheError, match="cannot fingerprint"):
            run_cache_key(config, workload, plan)
        bad_config = replace(config, seed=value)
        with key_scope():
            run_cache_key(*run_desc)
            for run in ((config, workload, plan), (bad_config, run_desc[1], plan)) * 2:
                with pytest.raises(CacheError, match="cannot fingerprint"):
                    run_cache_key(*run)


# ----------------------------------------------------------------------
# Key text: the one-walk emitter against the canonical_payload reference
# ----------------------------------------------------------------------
def reference_text(payload):
    """The historical key text: ``json.dumps`` of the canonical payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_NUMBER = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=1.0, max_value=1e6),
    st.sampled_from([2000, 2000.0, 1, 1.0, 1e16, 1.5e7, float("inf")]),
)


@st.composite
def runs(draw):
    """A run description with int/float twins, signed zeros and
    non-finite loads where the types allow them."""
    from dataclasses import replace

    from repro.core.policies import Thresholds

    topology = ERapidTopology(
        boards=draw(st.integers(2, 5)), nodes_per_board=draw(st.integers(1, 8))
    )
    policy = replace(
        POLICIES[draw(st.sampled_from(sorted(POLICIES)))],
        max_grants_per_dest=draw(st.one_of(st.none(), st.integers(0, 4))),
        dpm_smoothing=draw(st.sampled_from([0.0, -0.0, 0.25, 0.5])),
        thresholds=Thresholds(
            draw(st.sampled_from([0.2, 0.25, 1 / 3])),
            draw(st.sampled_from([0.7, 0.75, 2 / 3])),
        ),
    )
    config = ERapidConfig(
        topology=topology,
        policy=policy,
        control=ControlParams(window_cycles=draw(_NUMBER)),
        seed=draw(st.integers(0, 2**40)),
    )
    workload = WorkloadSpec(
        draw(st.sampled_from(["uniform", "complement", "h\u00e9\"lo\n", ""])),
        draw(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.5, float("inf"), float("nan")]),
                st.floats(min_value=0.0, allow_infinity=True),
                st.integers(0, 3),
            )
        ),
        seed=draw(st.integers(-(2**70), 2**70)),
    )
    plan = MeasurementPlan(
        warmup=draw(st.sampled_from([8000, 8000.0, 0, 0.0, 200.5])),
        measure=draw(st.sampled_from([10000, 10000.0, 1e-3])),
        drain_limit=draw(st.sampled_from([16000, 16000.0, float("inf")])),
    )
    return config, workload, plan


@settings(max_examples=60, deadline=None)
@given(run=runs(), engine=st.sampled_from(["fast", "batch"]))
def test_key_text_is_byte_identical_to_the_reference(run, engine):
    """The emitter writes exactly the text ``json.dumps`` makes of
    ``canonical_payload``, in every cached keyspace, and the key is its
    digest.  Keys derived inside one shared key scope equal the standalone
    digests, twins that compare equal but encode apart included."""
    from dataclasses import replace

    from repro.perf.cache import (
        _canonical,
        _encode,
        _key_text,
        canonical_payload,
        key_scope,
        key_texts,
    )
    from repro.perf.engines import CACHED

    assert engine in CACHED
    payload = canonical_payload(*run, engine=engine)
    texts = key_texts(*run, engine=engine)
    assert _key_text(texts) == reference_text(payload)
    for part in run:
        assert _encode(part) == reference_text(_canonical(part))
    config, workload, plan = run
    window = [replace(config.control, window_cycles=w) for w in (2000, 2000.0)]
    variants = [
        run,
        *[(replace(config, control=c), workload, plan) for c in window],
        (config, workload, MeasurementPlan(8000, 10000, 16000)),
        (config, workload, MeasurementPlan(8000.0, 10000.0, 16000.0)),
        (config, replace(workload, load=-0.0), plan),
        (config, replace(workload, load=0.0), plan),
    ]
    standalone = [
        hashlib.sha256(
            reference_text(canonical_payload(*r, engine=engine)).encode("utf-8")
        ).hexdigest()
        for r in variants
    ]
    assert all(standalone[i] != standalone[i + 1] for i in (1, 3, 5))
    with key_scope():
        for _ in range(2):
            assert [run_cache_key(*r, engine=engine) for r in variants] == standalone


def test_key_scope_retains_nothing_after_it_exits(run_desc):
    """The scope holds every frozen object it encoded (so no id is reused
    while it is open) and drops them all when the outermost block exits."""
    import weakref
    from dataclasses import replace

    from repro.perf.cache import _SCOPE, key_scope
    from repro.power.levels import PowerLevelTable

    config, workload, _ = run_desc
    with key_scope():
        plan, table = MeasurementPlan(8000, 10000, 16000), PowerLevelTable()
        with key_scope():  # a nested scope joins the open one
            key = run_cache_key(replace(config, power_levels=table), workload, plan)
        refs = [weakref.ref(plan), weakref.ref(table)]
        del plan, table
        assert all(ref() is not None for ref in refs)
        assert run_cache_key(*run_desc) != key
    assert _SCOPE.get() is None
    assert [ref() for ref in refs] == [None, None]


def test_int_and_float_twins_keep_their_own_text(run_desc):
    """json writes ``2000`` and ``2000.0`` differently, so equal configs of
    different field types are different runs to the cache."""
    from repro.perf.cache import _encode

    config, workload, _ = run_desc
    assert MeasurementPlan(8000, 10000, 16000) == MeasurementPlan(
        8000.0, 10000.0, 16000.0
    )
    plans = [
        MeasurementPlan(8000, 10000, 16000),
        MeasurementPlan(8000.0, 10000.0, 16000.0),
    ]
    assert _encode(plans[0]) == (
        '{"MeasurementPlan":{"drain_limit":16000,"measure":10000,"warmup":8000}}'
    )
    assert _encode(plans[1]) == (
        '{"MeasurementPlan":'
        '{"drain_limit":16000.0,"measure":10000.0,"warmup":8000.0}}'
    )
    assert len({run_cache_key(config, workload, p) for p in plans}) == 2
    assert _encode([-0.0, 0.0, float("inf"), -float("inf"), float("nan")]) == (
        "[-0.0,0.0,Infinity,-Infinity,NaN]"
    )


@settings(max_examples=30, deadline=None)
@given(
    run=runs(),
    profile=st.lists(
        st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0)), min_size=1, max_size=4
    ),
    horizon=st.sampled_from([60000, 60000.0, float("inf")]),
    sample_period=st.floats(min_value=1.0, max_value=1e4),
    probe=st.tuples(st.integers(0, 7), st.integers(0, 7)),
)
def test_fig3_key_is_the_reference_payload_digest(
    run, profile, horizon, sample_period, probe
):
    """Figure 3's stage key: the run payload plus its extra fields,
    joined through the same emitter, digests as ``json.dumps`` of the
    whole payload did."""
    from repro.experiments.fig3 import ProbedRun
    from repro.perf.cache import canonical_payload

    probed = ProbedRun(*run, tuple(profile), horizon, sample_period, probe)
    payload = canonical_payload(*run)
    payload["stage"] = "fig3"
    payload["profile"] = [[float(t), float(rate)] for t, rate in profile]
    payload["horizon"] = float(horizon)
    payload["sample_period"] = float(sample_period)
    payload["probe"] = list(probe)
    assert probed.cache_key() == hashlib.sha256(
        reference_text(payload).encode("utf-8")
    ).hexdigest()


def test_default_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("ERAPID_CACHE_DIR", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"
    monkeypatch.delenv("ERAPID_CACHE_DIR")
    assert default_cache_dir().name == "runs"


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_miss_then_hit_round_trips_exactly(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    assert cache.get_many([key]) == [None]
    result = fake_result()
    cache.put_many([(key, result, "fast")])
    (got,) = cache.get_many([key])
    assert got is not None
    assert got.to_dict() == result.to_dict()
    assert cache.stats() == {
        "hits": 1,
        "misses": 1,
        "puts": 1,
        "batched_gets": 2,
        "batched_puts": 1,
    }


def test_corrupt_entry_is_a_miss(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    cache.put_many([(key, fake_result(), "fast")])
    (tmp_path / f"{key}.json").write_text("{ truncated")
    assert cache.get_many([key]) == [None]


def test_clear_removes_entries(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    cache.put_many([(key, fake_result(), "fast")])
    assert cache.clear() == 1
    assert cache.get_many([key]) == [None]


def test_entry_file_is_json_with_format_tag(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    cache.put_many([(key, fake_result(), "fast")])
    payload = json.loads((tmp_path / f"{key}.json").read_text())
    assert payload["cache_format"] == 1
    assert payload["result"]["throughput"] == 0.5


# ----------------------------------------------------------------------
# Crash-safe concurrent writes
# ----------------------------------------------------------------------
def test_concurrent_writers_never_publish_a_torn_entry(tmp_path, run_desc):
    """Many threads putting the same key while readers poll: every read is
    either a miss (before first publish) or the complete entry — never a
    parse error surfacing as an exception, never a partial payload."""
    import threading

    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    result = fake_result()
    expected = result.to_dict()
    stop = threading.Event()
    torn = []

    def writer():
        for _ in range(50):
            cache.put_many([(key, result, "fast")])

    def reader():
        while not stop.is_set():
            (got,) = cache.get_many([key])
            if got is not None and got.to_dict() != expected:
                torn.append(got)

    readers = [threading.Thread(target=reader) for _ in range(2)]
    writers = [threading.Thread(target=writer) for _ in range(4)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert torn == []
    # No stray temp files survive a clean run, and the entry is intact.
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.get_many([key])[0].to_dict() == expected
    assert cache.stats()["puts"] == 200


def test_put_failure_leaves_no_temp_file(tmp_path, run_desc, monkeypatch):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    import os as os_mod

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.perf.cache.os.replace", boom)
    with pytest.raises(OSError):
        cache.put_many([(key, fake_result(), "fast")])
    monkeypatch.undo()
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.get_many([key]) == [None]  # nothing was published


# ----------------------------------------------------------------------
# Batched (slab-granular) cache I/O
# ----------------------------------------------------------------------
def batch_keys(cache, run_desc, n=3):
    config, workload, plan = run_desc
    return [
        cache.key_for(
            config, WorkloadSpec("uniform", 0.1 * (i + 1), seed=1), plan
        )
        for i in range(n)
    ]


def test_get_many_is_positional_and_counts_once(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    keys = batch_keys(cache, run_desc, n=3)
    results = [fake_result(throughput=0.1 * (i + 1)) for i in range(3)]
    cache.put_many([(keys[0], results[0], "fast"), (keys[2], results[2], "fast")])

    got = cache.get_many(keys)
    assert got[0].to_dict() == results[0].to_dict()
    assert got[1] is None
    assert got[2].to_dict() == results[2].to_dict()
    stats = cache.stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 1
    assert stats["batched_gets"] == 1


def test_get_many_treats_corrupt_entries_as_misses(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    keys = batch_keys(cache, run_desc, n=2)
    cache.put_many([(keys[0], fake_result(), "fast")])
    (tmp_path / f"{keys[0]}.json").write_text("{ truncated")
    assert cache.get_many(keys) == [None, None]


def test_put_many_round_trips_and_counts_once(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    keys = batch_keys(cache, run_desc, n=3)
    items = [
        (keys[i], fake_result(throughput=0.1 * (i + 1)), "batch")
        for i in range(3)
    ]
    assert cache.put_many(items) == 3
    for (key, result, _), got in zip(items, cache.get_many(keys)):
        assert got.to_dict() == result.to_dict()
        assert json.loads((tmp_path / f"{key}.json").read_text())["engine"] == "batch"
    stats = cache.stats()
    assert stats["puts"] == 3
    assert stats["batched_puts"] == 1
    assert cache.put_many([]) == 0  # no-op, no counter churn
    assert cache.stats()["batched_puts"] == 1


def test_put_many_rejects_unknown_engine_before_writing(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    keys = batch_keys(cache, run_desc, n=2)
    with pytest.raises(CacheError):
        cache.put_many(
            [(keys[0], fake_result(), "fast"), (keys[1], fake_result(), "warp")]
        )
    assert cache.get_many(keys[:1]) == [None]  # validation precedes any I/O
    assert list(tmp_path.glob("*.tmp")) == []


def test_put_many_staging_failure_publishes_nothing(
    tmp_path, run_desc, monkeypatch
):
    """An injected fsync failure mid-stage leaves zero entries and zero
    temp files: the batch either fully stages or fully unwinds."""
    cache = RunCache(tmp_path)
    keys = batch_keys(cache, run_desc, n=3)
    calls = {"n": 0}
    import os as os_mod

    real_fsync = os_mod.fsync

    def flaky_fsync(fd):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("injected staging failure")
        return real_fsync(fd)

    monkeypatch.setattr("repro.perf.cache.os.fsync", flaky_fsync)
    with pytest.raises(OSError):
        cache.put_many([(k, fake_result(), "fast") for k in keys])
    monkeypatch.undo()
    assert cache.get_many(keys) == [None, None, None]
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.stats()["puts"] == 0


def test_put_many_publish_failure_leaves_complete_prefix(
    tmp_path, run_desc, monkeypatch
):
    """An injected os.replace failure mid-publish leaves only complete,
    individually-valid entries (a prefix) — no torn files, no temps."""
    cache = RunCache(tmp_path)
    keys = batch_keys(cache, run_desc, n=3)
    items = [
        (keys[i], fake_result(throughput=0.1 * (i + 1)), "fast")
        for i in range(3)
    ]
    calls = {"n": 0}
    import os as os_mod

    real_replace = os_mod.replace

    def flaky_replace(src, dst):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("injected publish failure")
        return real_replace(src, dst)

    monkeypatch.setattr("repro.perf.cache.os.replace", flaky_replace)
    with pytest.raises(OSError):
        cache.put_many(items)
    monkeypatch.undo()
    # Exactly the first entry was published, and it is complete.
    first, second, third = cache.get_many(keys)
    assert first.to_dict() == items[0][1].to_dict()
    assert second is None and third is None
    payload = json.loads((tmp_path / f"{keys[0]}.json").read_text())
    assert payload["cache_format"] == 1
    assert list(tmp_path.glob("*.tmp")) == []
    stats = cache.stats()
    assert stats["puts"] == 1  # only what was actually published
    assert stats["batched_puts"] == 1


# ----------------------------------------------------------------------
# Counters and introspection
# ----------------------------------------------------------------------
def test_persistent_counters_accumulate_across_instances(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    cache.get_many([key])  # miss
    cache.put_many([(key, fake_result(), "fast")])
    cache.get_many([key])  # hit
    cache.flush_counters()
    batched = {"batched_gets": 2, "batched_puts": 1}
    totals = {"hits": 1, "misses": 1, "puts": 1, **batched}
    assert cache.persistent_stats() == totals
    # Session counters reset: a second flush adds nothing.
    cache.flush_counters()
    assert cache.persistent_stats() == totals
    # A fresh instance sees the persisted totals and adds its own.
    other = RunCache(tmp_path)
    other.get_many([key])  # hit
    other.flush_counters()
    merged = {"hits": 2, "misses": 1, "puts": 1, **batched, "batched_gets": 3}
    assert other.persistent_stats() == merged


def _count_misses(cache, key, rounds, start):
    start.wait()
    for _ in range(rounds):
        cache.get_many([key])  # one miss
        cache.flush_counters()


def test_concurrent_flushes_lose_no_counts(tmp_path, run_desc, monkeypatch):
    """8 threads × 25 flushes sharing one cache, then 2 processes × 50
    flushes on one store: every miss counted reaches the log, also when
    the log is compacted while they append."""
    for compact_bytes in (16 * 1024, 300):
        store = tmp_path / str(compact_bytes)
        monkeypatch.setattr("repro.perf.cache._COMPACT_BYTES", compact_bytes)
        _flush_concurrently(store, run_desc, compact_bytes)


def _flush_concurrently(tmp_path, run_desc, compact_bytes):
    import multiprocessing

    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    threads, rounds = 8, 25
    start = threading.Barrier(threads)
    pool = [
        threading.Thread(target=_count_misses, args=(cache, key, rounds, start))
        for _ in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    stats = cache.persistent_stats()
    assert stats["misses"] == stats["batched_gets"] == threads * rounds
    assert stats["hits"] == 0

    ctx = multiprocessing.get_context("fork")  # inherits the patched bound
    start = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_count_misses, args=(RunCache(tmp_path), key, 50, start))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    assert [p.exitcode for p in procs] == [0, 0]
    stats = cache.persistent_stats()
    assert stats["misses"] == stats["batched_gets"] == threads * rounds + 100
    assert (tmp_path / "_stats.log").stat().st_size <= max(compact_bytes, 200) + 200


def test_counter_log_skips_a_torn_record_and_folds_in_a_legacy_sidecar(tmp_path):
    """A crash mid-append leaves a torn last line: it is skipped.  A
    ``_stats.json`` of totals from an older store adds to the log's sum."""
    from repro.cli import main

    cache = RunCache(tmp_path)
    cache._count(misses=3, batched_gets=1)
    cache.flush_counters()
    with (tmp_path / "_stats.log").open("a") as fh:
        fh.write('{"hits": 7, "misses"')  # crash mid-append
    assert cache.persistent_stats()["misses"] == 3
    assert cache.persistent_stats()["hits"] == 0
    (tmp_path / "_stats.json").write_text(
        json.dumps({"hits": 40, "misses": 2, "puts": 5, "batched_gets": 6})
    )
    assert cache.persistent_stats() == {
        "hits": 40, "misses": 5, "puts": 5, "batched_gets": 7, "batched_puts": 0,
    }
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    cache.reset_counters()
    assert not (tmp_path / "_stats.json").exists()
    assert not (tmp_path / "_stats.log").exists()
    assert set(cache.persistent_stats().values()) == {0}


def test_compaction_keeps_every_total(tmp_path, monkeypatch):
    """Past the size bound a flush folds the log into one record: the
    totals are exact before and after, and the log stays short."""
    monkeypatch.setattr("repro.perf.cache._COMPACT_BYTES", 500)
    cache = RunCache(tmp_path)
    log = tmp_path / "_stats.log"
    expected = dict.fromkeys(("hits", "misses", "puts", "batched_gets", "batched_puts"), 0)
    sizes = []
    for i in range(60):
        deltas = dict(hits=i, misses=i % 3, puts=2 * i, batched_gets=1, batched_puts=1)
        cache._count(**deltas)
        for name, n in deltas.items():
            expected[name] += n
        cache.flush_counters()
        assert cache.persistent_stats() == expected
        sizes.append(log.stat().st_size)
    assert max(sizes) <= 500 + 200
    compactions = sum(b < a for a, b in zip(sizes, sizes[1:]))
    assert compactions >= 5
    assert list(tmp_path.glob("*.tmp")) == []


def test_flush_never_reads_the_log(tmp_path, monkeypatch):
    """A flush is one append of deltas: it reads nothing, so its cost does
    not grow with the log."""
    import builtins
    import os
    from pathlib import Path

    cache = RunCache(tmp_path)
    for _ in range(20):
        cache._count(misses=1)
        cache.flush_counters()
    reads = []
    for owner, name in ((os, "read"), (builtins, "open"), (Path, "read_bytes"),
                        (Path, "read_text"), (os, "pread")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            reads.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    cache._count(misses=1)
    cache.flush_counters()
    monkeypatch.undo()
    assert reads == []
    assert cache.persistent_stats()["misses"] == 21


def test_flush_counters_failure_leaves_no_temp_file(tmp_path, run_desc, monkeypatch):
    """A flush whose append fails, or a compaction whose replace fails,
    raises and leaves the old totals readable and no ``*.tmp``."""
    cache = RunCache(tmp_path)
    cache.put_many([(cache.key_for(*run_desc), fake_result(), "fast")])
    cache.flush_counters()
    assert cache.persistent_stats()["puts"] == 1
    cache.get_many([cache.key_for(*run_desc)])

    def boom(*args):
        raise OSError("disk full")

    monkeypatch.setattr("repro.perf.cache.os.write", boom)
    with pytest.raises(OSError):
        cache.flush_counters()
    monkeypatch.undo()
    assert cache.persistent_stats()["puts"] == 1
    assert cache.persistent_stats()["hits"] == 0

    monkeypatch.setattr("repro.perf.cache._COMPACT_BYTES", 0)
    monkeypatch.setattr("repro.perf.cache.os.replace", boom)
    cache._count(hits=1)
    with pytest.raises(OSError):
        cache.flush_counters()  # appended, then the compaction failed
    monkeypatch.undo()
    assert list(tmp_path.glob("*.tmp")) == []
    assert cache.persistent_stats()["puts"] == 1
    assert cache.persistent_stats()["hits"] == 1


def test_stage_store_is_accounted_apart_from_the_root(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    stages = cache.stages()
    key = cache.key_for(*run_desc)
    stages.put_many([(key, fake_result(), "fast")])
    assert stages.get_many([key]) != [None]
    stages.flush_counters()
    assert stages.root.parent == cache.root
    assert (stages.entry_count(), stages.persistent_stats()["puts"]) == (1, 1)
    assert (cache.entry_count(), cache.disk_bytes()) == (0, 0)
    assert cache.get_many([key]) == [None]
    assert cache.persistent_stats() == dict.fromkeys(
        ("hits", "misses", "puts", "batched_gets", "batched_puts"), 0
    )


def test_entries_and_size_exclude_stats_sidecar(tmp_path, run_desc):
    cache = RunCache(tmp_path)
    key = cache.key_for(*run_desc)
    cache.put_many([(key, fake_result(), "fast")])
    cache.flush_counters()
    (tmp_path / "_stats.json").write_text('{"puts": 2}')  # a legacy sidecar
    assert (tmp_path / "_stats.log").exists()
    assert cache.entry_count() == 1
    assert [p.stem for p in cache.entries()] == [key]
    assert cache.disk_bytes() == (tmp_path / f"{key}.json").stat().st_size
    # clear() removes entries but leaves the counters.
    assert cache.clear() == 1
    assert cache.persistent_stats()["puts"] == 3
    cache.reset_counters()
    assert not (tmp_path / "_stats.log").exists()
    assert cache.persistent_stats() == {
        "hits": 0,
        "misses": 0,
        "puts": 0,
        "batched_gets": 0,
        "batched_puts": 0,
    }


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
def test_cached_sweep_is_bit_identical(tmp_path):
    spec = SweepSpec(
        pattern="uniform",
        loads=(0.2, 0.4),
        policies=("NP-NB", "P-B"),
        boards=2,
        nodes_per_board=4,
        seed=1,
        plan=PLAN,
    )
    cache = RunCache(tmp_path)
    first = run_sweep(spec, cache=cache)
    assert cache.stats()["puts"] == 4
    second = run_sweep(spec, cache=cache)
    assert cache.stats()["hits"] == 4
    assert sweep_fingerprint(first) == sweep_fingerprint(second)
    # No cache → no disk traffic, same results.
    uncached = run_sweep(spec)
    assert sweep_fingerprint(uncached) == sweep_fingerprint(first)


def test_reproduce_cli_has_cache_and_jobs_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["reproduce", "--out", "x", "--jobs", "4", "--no-cache"]
    )
    assert args.jobs == 4
    assert args.no_cache is True


def test_resolve_cache_modes(tmp_path):
    from repro.experiments.runner import _resolve_cache

    assert _resolve_cache(False) is None
    assert _resolve_cache(None) is None
    store = RunCache(tmp_path)
    assert _resolve_cache(store) is store
    assert _resolve_cache(True) is not None


# ----------------------------------------------------------------------
# Engine-aware keyspaces (batch tier)
# ----------------------------------------------------------------------
def test_fast_payload_is_byte_stable_without_engine_fields(run_desc):
    """Historical scalar keys must survive the batch tier: engine="fast"
    adds nothing to the canonical payload."""
    from repro.perf.cache import canonical_payload

    config, workload, plan = run_desc
    payload = canonical_payload(config, workload, plan)
    assert "engine" not in payload
    assert "batch_kernel_version" not in payload
    assert payload == canonical_payload(config, workload, plan, engine="fast")
    assert run_cache_key(config, workload, plan) == run_cache_key(
        config, workload, plan, engine="fast"
    )


def test_engine_keyspaces_are_disjoint(run_desc):
    from repro.perf.engines import CACHED, ENGINES

    config, workload, plan = run_desc
    assert CACHED == ("fast", "batch")
    assert set(ENGINES) - set(CACHED) == {"detailed"}
    keys = {run_cache_key(config, workload, plan, engine=e) for e in CACHED}
    assert len(keys) == len(CACHED)
    with pytest.raises(CacheError):  # no keyspace nothing writes to
        run_cache_key(config, workload, plan, engine="detailed")


def test_cache_and_job_keys_are_pinned():
    """Literal content addresses: a change to key derivation, the
    canonical encoding or the grid expansion shows up here, whatever the
    cache on disk holds."""
    from repro.service.spec import JobSpec

    task = SweepSpec(pattern="uniform", loads=(0.5,), policies=("P-B",)).tasks()[0]
    args = (task.config, task.workload, task.plan)
    assert run_cache_key(*args) == (
        "3cc1237353a3d772c7fd0d303c60f84fd317cd5a5cf1c94f17690bd2abf64566"
    )
    assert run_cache_key(*args, engine="batch") == (
        "e2a14d2b087ab82ffb6d8735041bb83f70fd95fe03e00422409d95de76e90df4"
    )
    assert JobSpec().job_key() == (
        "b36b3c474c6aa7737962e4d9bfbb768e6388ddd63579cd147b045e965598666c"
    )
    assert JobSpec(engine="batch").job_key() == (
        "e3a40d07f0f7b3c01e784640520e32621c96fa997f6befee5c232ac36dce7bcb"
    )
    # Figure 3's stage keys (``ProbedRun.cache_key``, built on
    # ``canonical_payload``) as ``run_fig3`` computes them: recorded by a
    # cache stub, never rebuilt by hand, so the hashed types are its own.
    from repro.experiments.fig3 import run_fig3

    class KeyRecorder:
        def __init__(self):
            self.keys = []

        def get_many(self, keys, decode=None):
            self.keys.extend(keys)
            return [object()] * len(keys)  # all hits: nothing simulates

        def put_many(self, items):
            assert not items
            return 0

    recorder = KeyRecorder()
    run_fig3(cache=recorder)
    stage_keys = dict(zip(POLICIES, recorder.keys))
    assert stage_keys["NP-NB"] == (
        "e6a262c3ccf63a314bd48bb3ebc7e93aa983d87e064764ffaac0187ddc8f69b1"
    )
    assert stage_keys["P-B"] == (
        "6b712115118515444a497cac2fb74ec446e74130256a007ac26843b3095c0829"
    )


def test_batch_key_tracks_batch_kernel_version(run_desc, monkeypatch):
    config, workload, plan = run_desc
    batch_before = run_cache_key(config, workload, plan, engine="batch")
    fast_before = run_cache_key(config, workload, plan)
    monkeypatch.setattr("repro.core.batch.BATCH_KERNEL_VERSION", "test-bump")
    assert run_cache_key(config, workload, plan, engine="batch") != batch_before
    # The scalar keyspace is untouched by batch kernel bumps.
    assert run_cache_key(config, workload, plan) == fast_before


def test_unknown_engine_raises(run_desc, tmp_path):
    config, workload, plan = run_desc
    with pytest.raises(CacheError):
        run_cache_key(config, workload, plan, engine="warp")
    with pytest.raises(CacheError):
        RunCache(tmp_path).put_many([("deadbeef", fake_result(), "warp")])


def test_by_engine_stats_breaks_down_entries(tmp_path, run_desc):
    config, workload, plan = run_desc
    cache = RunCache(tmp_path)
    fast_key = cache.key_for(config, workload, plan)
    batch_key = cache.key_for(config, workload, plan, engine="batch")
    cache.put_many([(fast_key, fake_result(), "fast")])
    cache.put_many([(batch_key, fake_result(), "batch")])
    stats = cache.by_engine_stats()
    assert set(stats) == {"fast", "batch"}
    assert stats["fast"]["entries"] == 1 and stats["fast"]["bytes"] > 0
    assert stats["batch"]["entries"] == 1 and stats["batch"]["bytes"] > 0


def test_by_engine_stats_counts_untagged_entries_as_fast(tmp_path):
    cache = RunCache(tmp_path)
    # An entry written before engine tagging existed has no "engine" key.
    legacy = {"cache_format": 1, "result": fake_result().to_dict()}
    (tmp_path / ("ab" * 32 + ".json")).write_text(json.dumps(legacy))
    stats = cache.by_engine_stats()
    assert stats["fast"]["entries"] == 1


def test_entry_files_carry_engine_tag(tmp_path, run_desc):
    config, workload, plan = run_desc
    cache = RunCache(tmp_path)
    key = cache.key_for(config, workload, plan, engine="batch")
    cache.put_many([(key, fake_result(), "batch")])
    data = json.loads((tmp_path / f"{key}.json").read_text())
    assert data["engine"] == "batch"
