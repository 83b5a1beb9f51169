"""Parallel sweep execution must be bit-identical to serial execution.

The acceptance contract for ``--jobs``: the same :class:`SweepSpec` run at
``jobs=1`` and ``jobs=4`` produces identical :class:`RunResult` sequences
and identical determinism fingerprints — worker scheduling must be
unobservable in the results.
"""

import pytest

from repro.analysis.determinism import sweep_fingerprint
from repro.experiments.sweep import SweepSpec, run_sweep, run_sweep_matrix
from repro.metrics.collector import MeasurementPlan
from repro.perf.executor import RunTask, execute_run, execute_tasks

TINY_PLAN = MeasurementPlan(warmup=200, measure=600, drain_limit=1500)


def tiny_spec(**overrides):
    defaults = dict(
        pattern="uniform",
        loads=(0.2, 0.4),
        policies=("NP-NB", "P-B"),
        boards=2,
        nodes_per_board=4,
        seed=1,
        plan=TINY_PLAN,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_jobs4_bit_identical_to_serial():
    spec = tiny_spec()
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=4)

    assert list(serial) == list(parallel)  # same policies, same order
    for policy in serial:
        for a, b in zip(serial[policy], parallel[policy]):
            assert a.to_dict() == b.to_dict()
    assert sweep_fingerprint(serial) == sweep_fingerprint(parallel)


def test_executor_preserves_task_order_and_reports_completions():
    spec = tiny_spec()
    from repro.core.config import ERapidConfig
    from repro.core.policies import POLICIES
    from repro.network.topology import ERapidTopology
    from repro.traffic.workload import WorkloadSpec

    config = ERapidConfig(
        topology=ERapidTopology(boards=2, nodes_per_board=4)
    ).with_policy(POLICIES["P-B"])
    tasks = [
        RunTask(config, WorkloadSpec("uniform", load, seed=1), TINY_PLAN)
        for load in (0.2, 0.3, 0.4)
    ]
    seen = []
    results = execute_tasks(tasks, jobs=2, on_result=lambda i, r: seen.append(i))
    assert sorted(seen) == [0, 1, 2]
    # Task order in the returned list regardless of completion order.
    inline = [execute_run(t) for t in tasks]
    assert [r.to_dict() for r in results] == [r.to_dict() for r in inline]


def test_executor_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        execute_tasks([], jobs=0)


def test_matrix_runs_multiple_panels_in_one_batch():
    specs = {
        "uniform": tiny_spec(),
        "complement": tiny_spec(pattern="complement"),
    }
    matrix = run_sweep_matrix(specs, jobs=4)
    assert set(matrix) == {"uniform", "complement"}
    for name, spec in specs.items():
        assert set(matrix[name]) == set(spec.policies)
        for runs in matrix[name].values():
            assert len(runs) == len(spec.loads)
    # Each panel individually matches its standalone serial sweep.
    for name, spec in specs.items():
        assert sweep_fingerprint(matrix[name]) == sweep_fingerprint(
            run_sweep(spec)
        )


def test_progress_streams_one_line_per_run():
    spec = tiny_spec()
    lines = []
    run_sweep(
        spec,
        progress=lambda policy, load, r: lines.append((policy, load)),
        jobs=4,
    )
    assert sorted(lines) == sorted(
        (p, l) for p in spec.policies for l in spec.loads
    )


def test_sweepspec_tasks_matches_executed_task_list(monkeypatch):
    """SweepSpec.tasks() must stay in lock-step with run_sweep_matrix's
    cell construction — the CLI's verbose shard-plan preview and the
    shard planner reason about exactly this list."""
    import repro.perf.executor as executor_mod

    spec = tiny_spec()
    captured = {}
    real = executor_mod.execute_tasks

    def recording(tasks, jobs=1, on_result=None, pool=None):
        captured["tasks"] = list(tasks)
        return real(tasks, jobs=jobs, on_result=on_result, pool=pool)

    monkeypatch.setattr(executor_mod, "execute_tasks", recording)
    run_sweep(spec, jobs=1)
    # Compare by canonical content (PowerLevelTable compares by identity,
    # so freshly-built configs are never `==` even when identical).
    from repro.perf.cache import canonical_payload

    def canon(tasks):
        return [canonical_payload(t.config, t.workload, t.plan) for t in tasks]

    assert canon(captured["tasks"]) == canon(spec.tasks())


# ----------------------------------------------------------------------
# run_cached: the one cached-run loop
# ----------------------------------------------------------------------
def test_run_cached_reports_hits_first_and_stores_misses_in_chunks(
    tmp_path, monkeypatch
):
    import repro.perf.executor as executor_mod
    from repro.perf.cache import RunCache

    monkeypatch.setattr(executor_mod, "PUT_CHUNK", 2)
    tasks = tiny_spec(loads=(0.2, 0.3, 0.4)).tasks()  # 2 policies x 3 loads
    cache = RunCache(tmp_path)
    warm, warm_keys = executor_mod.run_cached(tasks[1::2], cache=cache)
    assert cache.stats()["batched_puts"] == 2  # 3 fresh results, chunks of 2

    seen = []
    results, keys = executor_mod.run_cached(
        tasks, cache=cache,
        on_result=lambda i, result, cached: seen.append((i, cached)),
    )
    # Hits report first, in task order; then the live runs.
    assert seen == [(1, True), (3, True), (5, True),
                    (0, False), (2, False), (4, False)]
    assert keys[1::2] == warm_keys
    assert keys == [cache.key_for(t.config, t.workload, t.plan) for t in tasks]
    assert [r.to_dict() for r in results[1::2]] == [r.to_dict() for r in warm]
    assert [r.to_dict() for r in results] == [
        execute_run(t).to_dict() for t in tasks
    ]
    assert cache.stats()["puts"] == 6 and cache.entry_count() == 6

    # Without a cache it only executes: no keys, nothing on disk.
    bare, no_keys = executor_mod.run_cached(tasks[:1])
    assert no_keys == [None]
    assert bare[0].to_dict() == results[0].to_dict()


@pytest.mark.parametrize("engine", ["fast", "batch"])
def test_all_hit_run_cached_starts_no_pool_and_builds_no_engine(
    tmp_path, monkeypatch, engine
):
    import repro.perf.executor as executor_mod
    from repro.core.batch import BatchEngine
    from repro.core.engine import FastEngine
    from repro.perf.cache import RunCache

    tasks = tiny_spec().tasks()
    cache = RunCache(tmp_path)
    warm, _ = executor_mod.run_cached(tasks, cache=cache, engine=engine)

    def forbidden(*args, **kwargs):
        raise AssertionError("an all-hit call started a pool or an engine")

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(FastEngine, "__init__", forbidden)
    monkeypatch.setattr(BatchEngine, "__init__", forbidden)
    replay, _ = executor_mod.run_cached(
        tasks, cache=cache, jobs=2, engine=engine
    )
    assert [r.to_dict() for r in replay] == [r.to_dict() for r in warm]


@pytest.mark.parametrize("engine", ["detailed", "bogus"])
def test_run_cached_rejects_unknown_engine_before_any_cache_io(
    tmp_path, engine
):
    """Only the engines of ``ENGINES`` reach an executor; anything else
    raises before a key is computed, a lookup counted or an entry written
    (it used to run the fast engine and store under the fast key)."""
    from repro.errors import ConfigurationError
    from repro.perf.cache import RunCache
    from repro.perf.executor import run_cached

    cache = RunCache(tmp_path)
    with pytest.raises(ConfigurationError, match=engine):
        run_cached(tiny_spec().tasks()[:1], cache=cache, engine=engine)
    assert cache.entry_count() == 0
    assert set(cache.stats().values()) == {0}
    with pytest.raises(ConfigurationError):
        run_sweep(tiny_spec(), engine=engine)


# ----------------------------------------------------------------------
# cache_keys: one identity memo per call
# ----------------------------------------------------------------------
def test_cache_keys_memo_is_by_identity_never_equality(tmp_path):
    """Equal twins of different field types key differently, and equal
    content that compares unequal keys alike: in one call each task gets
    exactly its own standalone key."""
    from repro.core.config import ControlParams, ERapidConfig
    from repro.perf.cache import RunCache, run_cache_key
    from repro.perf.executor import cache_keys
    from repro.traffic.workload import WorkloadSpec

    int_cfg = ERapidConfig(control=ControlParams(window_cycles=2000))
    float_cfg = ERapidConfig(
        control=ControlParams(window_cycles=2000.0),
        power_levels=int_cfg.power_levels,
    )
    fresh_cfg = ERapidConfig(control=ControlParams(window_cycles=2000))
    int_plan = MeasurementPlan(8000, 10000, 16000)
    float_plan = MeasurementPlan(8000.0, 10000.0, 16000.0)
    assert int_cfg == float_cfg and hash(int_cfg) == hash(float_cfg)
    assert int_plan == float_plan and hash(int_plan) == hash(float_plan)
    assert fresh_cfg != int_cfg  # its PowerLevelTable compares by identity

    workload = WorkloadSpec("uniform", 0.5, seed=1)
    tasks = [
        RunTask(config, workload, plan)
        for config in (int_cfg, float_cfg, fresh_cfg)
        for plan in (int_plan, float_plan)
    ]
    for engine in ("fast", "batch"):
        keyed = cache_keys(tasks, RunCache(tmp_path), engine)
        assert keyed == [
            (run_cache_key(t.config, t.workload, t.plan, engine=engine), engine)
            for t in tasks
        ]
        keys = [k for k, _ in keyed]
        assert len(set(keys[:4])) == 4
        assert keys[4:] == keys[:2]  # fresh_cfg encodes as int_cfg does


def test_warm_reproduce_encodes_each_frozen_object_once(tmp_path, monkeypatch):
    """A warm ``reproduce_all`` derives its 66 run keys (48 sweep, 18
    ablation) through ``key_for`` and Figure 3's 4 keys in one key scope:
    every distinct frozen object it meets — the 38 configs and the
    default sub-objects they share — is encoded once for the whole call,
    and nothing stays in the scope afterwards."""
    from collections import Counter
    from dataclasses import is_dataclass

    import repro.perf.cache as cache_mod
    from repro.experiments.fig3 import DesignSpaceResult
    from repro.experiments.runner import reproduce_all
    from repro.metrics.collector import RunResult
    from repro.power.levels import PowerLevelTable

    extra = {"grants": 1, "dpm_transitions": 1}

    class AllHits(cache_mod.RunCache):
        def get_many(self, keys, decode=RunResult.from_dict):
            if decode == RunResult.from_dict:
                hit = RunResult(0.5, 0.5, 1.0, 2.0, 3.0, 4.0, 1, 1, 1, extra=extra)
            else:
                hit = DesignSpaceResult("x", [], [], [])
            return [hit] * len(keys)

        def stages(self):
            return AllHits(self.root / "stages")

    def frozen(obj):
        if isinstance(obj, PowerLevelTable):
            return True
        return is_dataclass(obj) and type(obj).__dataclass_params__.frozen

    # A walk of a dataclass or table encodes its fields through _encode; a
    # memo hit returns without a nested call.  (A type's first instance is
    # dispatched to _encode once more after its layout is built: a nested
    # call on the object itself is not a walk.)
    seen, walked, memos, stack = set(), Counter(), set(), []
    derived = []
    encode, key_for = cache_mod._encode, cache_mod.RunCache.key_for

    def counting_encode(obj, memo=None):
        if stack and stack[-1][0] is not obj:
            stack[-1][1] = True
        frame = [obj, False]
        stack.append(frame)
        try:
            return encode(obj, memo)
        finally:
            stack.pop()
            if frozen(obj):
                seen.add(id(obj))
                memos.add(id(memo) if memo is not None else None)
                walked[id(obj)] += frame[1]

    def counting_key_for(self, *args, **kwargs):
        derived.append(args)
        return key_for(self, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "_encode", counting_encode)
    monkeypatch.setattr(cache_mod.RunCache, "key_for", counting_key_for)
    plan = MeasurementPlan(warmup=8000, measure=10000, drain_limit=16000)
    reproduce_all(
        tmp_path / "out", loads=(0.1, 0.5, 0.9), plan=plan,
        cache=AllHits(tmp_path / "cache"), engine="batch", log=lambda line: None,
    )

    assert len(derived) == 66
    configs = {id(config) for config, _, _ in derived}
    assert len(configs) == 16 + 18
    assert configs < seen and len(seen) > 100
    assert len(memos) == 1 and None not in memos  # one scope for the call
    assert walked == Counter(dict.fromkeys(seen, 1))
    assert cache_mod._SCOPE.get() is None


# ----------------------------------------------------------------------
# Sharded batch execution: hooks and error paths
# ----------------------------------------------------------------------
def mixed_tasks():
    """Covered (uniform/complement) plus uncovered (hotspot) points."""
    from repro.core.config import ERapidConfig
    from repro.core.policies import POLICIES
    from repro.network.topology import ERapidTopology
    from repro.traffic.workload import WorkloadSpec

    config = ERapidConfig(
        topology=ERapidTopology(boards=2, nodes_per_board=4)
    ).with_policy(POLICIES["P-B"])
    tasks = []
    for pattern in ("uniform", "complement", "hotspot"):
        for load in (0.2, 0.3, 0.4, 0.5):
            tasks.append(
                RunTask(config, WorkloadSpec(pattern, load, seed=1), TINY_PLAN)
            )
    return tasks


@pytest.fixture()
def three_run_shards(monkeypatch):
    """Clamp the planner to 3-run batch shards at every ``jobs``."""
    import repro.perf.shards as shards

    monkeypatch.setattr(shards, "SLAB_CAP", 3)
    monkeypatch.setattr(shards, "MIN_SHARD", 3)


def one_run_reference(tasks):
    """Each covered task on a one-run slab, each uncovered one scalar:
    what every shard layout must reproduce row for row."""
    from repro.core.batch import BatchEngine, coverage_gap

    return [
        BatchEngine([(t.config, t.workload, t.plan)]).run()[0]
        if coverage_gap(t.config, t.workload, t.plan) is None
        else execute_run(t)
        for t in tasks
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_result_fires_exactly_once_in_task_order_within_shard(
    jobs, three_run_shards
):
    from repro.perf.executor import run_sweep_batched
    from repro.perf.shards import plan_shards

    tasks = mixed_tasks()
    plan = plan_shards(tasks, jobs=jobs)
    assert len(plan.batch_shards) >= 2 and plan.scalar_indices
    seen = []
    results = run_sweep_batched(
        tasks, jobs=jobs, on_result=lambda i, r: seen.append((i, r))
    )
    assert sorted(i for i, _ in seen) == list(range(len(tasks)))  # once each
    # Within every batch shard, delivery follows task order.
    position = {index: pos for pos, (index, _) in enumerate(seen)}
    for shard in plan.batch_shards:
        shard_positions = [position[i] for i in shard.indices]
        assert shard_positions == sorted(shard_positions), shard
    # Each result lands in its own slot, and the hook saw the same one.
    expected = [r.to_dict() for r in one_run_reference(tasks)]
    assert [r.to_dict() for r in results] == expected
    assert [r.to_dict() for _, r in sorted(seen, key=lambda x: x[0])] == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_shard_reports_layout_and_transport(jobs, three_run_shards):
    from repro.perf.executor import run_sweep_batched
    from repro.perf.shards import plan_shards

    tasks = mixed_tasks()
    plan = plan_shards(tasks, jobs=jobs)
    reports = []
    run_sweep_batched(tasks, jobs=jobs, on_shard=reports.append)

    batch_reports = [r for r in reports if r.kind == "batch"]
    scalar_reports = [r for r in reports if r.kind == "scalar"]
    assert len(batch_reports) == len(plan.batch_shards)
    assert len(scalar_reports) == 1
    assert scalar_reports[0].runs == len(plan.scalar_indices)
    for r in batch_reports:
        assert r.seconds > 0
        assert r.payload_bytes > 0  # struct-of-arrays transport volume
    assert sum(r.runs for r in reports) == len(tasks)


def _check_fallback_rescues_shard(jobs):
    """A batch shard that raises must be transparently re-run scalar."""
    from repro.core.batch import BatchEngine
    from repro.perf.executor import run_sweep_batched
    from repro.perf.shards import plan_shards

    tasks = mixed_tasks()
    plan = plan_shards(tasks, jobs=jobs)
    # The failure is keyed on shard *content* (the shard holding the
    # uniform load=0.2 point) so it triggers deterministically in the
    # parent and in forked pool workers alike.
    (doomed,) = [
        s
        for s in plan.batch_shards
        if any(
            tasks[i].workload.pattern == "uniform"
            and tasks[i].workload.load == 0.2
            for i in s.indices
        )
    ]
    baseline = run_sweep_batched(tasks, jobs=1)
    expected = [
        execute_run(t) if i in doomed.indices else baseline[i]
        for i, t in enumerate(tasks)
    ]

    if jobs > 1:
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatch only reaches pool workers under fork")

    original = BatchEngine.run_payload

    def boom(self):
        if any(
            wl.pattern == "uniform" and wl.load == 0.2
            for _, wl, _ in self.runs
        ):
            raise RuntimeError("injected shard failure")
        return original(self)

    reports = []
    seen = []
    try:
        BatchEngine.run_payload = boom
        results = run_sweep_batched(
            tasks,
            jobs=jobs,
            on_result=lambda i, r: seen.append(i),
            on_shard=reports.append,
        )
    finally:
        BatchEngine.run_payload = original

    # The doomed shard's runs carry scalar-engine results; every other
    # run is bit-identical to the unfailed batch sweep.
    assert [r.to_dict() for r in results] == [r.to_dict() for r in expected]
    assert sorted(seen) == list(range(len(tasks)))  # still exactly once
    fallbacks = [r for r in reports if r.kind == "fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0].shard_id == doomed.shard_id
    assert fallbacks[0].runs == doomed.runs
    assert "injected shard failure" in fallbacks[0].error


def test_failed_shard_falls_back_to_scalar_inline(three_run_shards):
    _check_fallback_rescues_shard(jobs=1)


def test_failed_shard_falls_back_to_scalar_in_pool(three_run_shards):
    _check_fallback_rescues_shard(jobs=2)
