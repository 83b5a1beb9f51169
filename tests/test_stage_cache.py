"""Figure 3 and the ablations through the run cache (``<root>/stages``).

Every test here fails with the stage cache switched off: a warm call must
construct no engine, count only hits, and still reproduce the uncached
bytes.
"""

from dataclasses import replace

import pytest

from repro.core.config import ERapidConfig
from repro.core.engine import FastEngine
from repro.core.policies import P_B, POLICIES
from repro.experiments import ablations
from repro.experiments.fig3 import (
    DEFAULT_PROFILE,
    DesignSpaceResult,
    ProbedRun,
    render_fig3,
    run_fig3,
)
from repro.experiments.runner import reproduce_all
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.cache import RunCache, run_cache_key
from repro.traffic.workload import WorkloadSpec

#: Two points per ablation keep the full-length plan affordable.
ABLATIONS = {
    "window": (ablations.ablate_window, {"windows": (1000, 2000)}),
    "thresholds": (
        ablations.ablate_thresholds,
        {"bands": ((0.5, 0.7, 0.3), (0.7, 0.9, 0.0))},
    ),
    "levels": (ablations.ablate_power_levels, {"level_counts": (2, 3)}),
    "limited-dbr": (ablations.ablate_limited_dbr, {"caps": (1, None)}),
}
FIG3 = {"horizon": 6000.0, "profile": ((0.0, 0.002), (2000.0, 0.008))}


def forbid_engines(monkeypatch):
    def boom(self, *args, **kwargs):
        raise AssertionError("a warm stage must not construct a FastEngine")

    monkeypatch.setattr(FastEngine, "__init__", boom)


def stage_tables(cache, jobs=1):
    tables = {
        name: fn(cache=cache, jobs=jobs, **kwargs)[1]
        for name, (fn, kwargs) in ABLATIONS.items()
    }
    tables["fig3"] = render_fig3(run_fig3(cache=cache, **FIG3))
    return tables


@pytest.fixture(scope="module")
def uncached_tables():
    return stage_tables(None)


# ----------------------------------------------------------------------
# (a) reproduce_all end to end
# ----------------------------------------------------------------------
def test_second_reproduce_simulates_nothing_and_matches_uncached(
    tmp_path, monkeypatch
):
    kwargs = dict(
        loads=(0.5,),
        plan=MeasurementPlan(warmup=200, measure=400, drain_limit=400),
        log=lambda line: None,
    )
    cache = RunCache(tmp_path / "cache")
    direct = reproduce_all(tmp_path / "direct", cache=False, **kwargs)
    first = reproduce_all(tmp_path / "first", cache=cache, **kwargs)
    assert cache.persistent_stats()["puts"] == 16
    assert cache.stages().persistent_stats()["puts"] == 22

    lines = []
    forbid_engines(monkeypatch)
    second = reproduce_all(
        tmp_path / "second", cache=cache, **{**kwargs, "log": lines.append}
    )
    assert any("sweep cache: 16/16 hits (0 stored)" in line for line in lines)
    assert any("stage cache: 22/22 hits (0 stored)" in line for line in lines)
    # The sweep's accounting is exactly what it was: stage traffic never
    # reaches the root's counters, entries or bytes.
    assert cache.persistent_stats()["hits"] == 16
    assert cache.entry_count() == 16
    assert cache.stages().entry_count() == 22

    assert len(first) == 15 and set(first) == set(second) == set(direct)
    for name, path in first.items():
        assert second[name].read_bytes() == path.read_bytes(), name
        assert direct[name].read_bytes() == path.read_bytes(), name


# ----------------------------------------------------------------------
# (b) each stage: cached == uncached, jobs=2 == jobs=1
# ----------------------------------------------------------------------
def test_stage_tables_are_identical_cold_warm_and_uncached(
    tmp_path, uncached_tables, monkeypatch
):
    cache = RunCache(tmp_path).stages()
    assert stage_tables(cache) == uncached_tables
    assert cache.stats()["misses"] == cache.stats()["puts"] == 12
    forbid_engines(monkeypatch)
    assert stage_tables(cache) == uncached_tables
    assert cache.stats()["hits"] == 12


def test_ablation_misses_fan_out_bit_identically(tmp_path, uncached_tables):
    cache = RunCache(tmp_path)
    pooled = {
        name: fn(cache=cache, jobs=2, **kwargs)[1]
        for name, (fn, kwargs) in ABLATIONS.items()
    }
    assert pooled == {name: uncached_tables[name] for name in ABLATIONS}
    assert cache.stats()["puts"] == 8


# ----------------------------------------------------------------------
# (c) torn entries
# ----------------------------------------------------------------------
def test_corrupt_stage_entries_read_as_misses_and_are_rewritten(
    tmp_path, uncached_tables
):
    cache = RunCache(tmp_path)
    fn, kwargs = ABLATIONS["limited-dbr"]
    fn(cache=cache, **kwargs)
    run_fig3(cache=cache, **FIG3)
    entries = list(cache.entries())
    assert len(entries) == 6
    originals = {path: path.read_text() for path in entries}
    for i, (path, text) in enumerate(originals.items()):
        # Truncated JSON for half of them, valid JSON without a value for
        # the rest.
        path.write_text(text[: len(text) // 2] if i % 2 else "{}")

    again = RunCache(tmp_path)
    assert fn(cache=again, **kwargs)[1] == uncached_tables["limited-dbr"]
    assert render_fig3(run_fig3(cache=again, **FIG3)) == uncached_tables["fig3"]
    assert again.stats()["hits"] == 0
    assert again.stats()["misses"] == again.stats()["puts"] == 6
    assert {path: path.read_text() for path in entries} == originals


def test_a_run_entry_never_decodes_as_a_probe_series(tmp_path):
    cache = RunCache(tmp_path)
    fn, kwargs = ABLATIONS["limited-dbr"]
    fn(cache=cache, **kwargs)
    keys = [path.stem for path in cache.entries()]
    assert cache.get_many(keys, decode=DesignSpaceResult.from_dict) == [None, None]


# ----------------------------------------------------------------------
# (d) keys
# ----------------------------------------------------------------------
def default_probed_run(policy="P-B"):
    """``run_fig3()``'s corner for ``policy``, built by hand."""
    return ProbedRun(
        config=ERapidConfig(
            topology=ERapidTopology(boards=4, nodes_per_board=4),
            policy=POLICIES[policy],
        ),
        workload=WorkloadSpec(pattern="complement", seed=3),
        plan=MeasurementPlan(warmup=1000, measure=27000.0, drain_limit=0),
        profile=DEFAULT_PROFILE,
        horizon=28000.0,
        sample_period=500.0,
        probe=(0, 3),
    )


def test_fig3_key_covers_every_input(monkeypatch):
    base = default_probed_run()
    key = base.cache_key()
    assert key == default_probed_run().cache_key()  # content, not identity
    eight = ERapidTopology(boards=8, nodes_per_board=4)
    changed = {
        "profile": ((0.0, 0.002), (8000.0, 0.009), (18000.0, 0.002)),
        "horizon": 28500.0,
        "sample_period": 250.0,
        "probe": (0, 2),
        "workload": replace(base.workload, seed=4),
        "plan": replace(base.plan, warmup=2000),
        "config": replace(base.config, topology=eight),
    }
    keys = {
        name: replace(base, **{name: value}).cache_key()
        for name, value in changed.items()
    }
    keys["policy"] = default_probed_run("NP-B").cache_key()
    monkeypatch.setattr("repro.sim.kernel.KERNEL_VERSION", "test-bump")
    keys["kernel"] = base.cache_key()
    assert len({key, *keys.values()}) == len(keys) + 1, keys
    # Never the address of the plain run with the same description.
    assert key != run_cache_key(base.config, base.workload, base.plan)


def test_fig3_entries_are_keyed_by_every_hard_coded_input(tmp_path):
    cache = RunCache(tmp_path)
    run_fig3(cache=cache)
    expected = {default_probed_run(policy).cache_key() for policy in POLICIES}
    assert {path.stem for path in cache.entries()} == expected


def test_ablation_point_is_keyed_like_the_same_run_built_by_hand(tmp_path):
    cache = RunCache(tmp_path)
    ablations.ablate_limited_dbr(caps=(1,), cache=cache)
    run = (
        ERapidConfig(
            topology=ERapidTopology(boards=4, nodes_per_board=4),
            policy=replace(P_B, name="P-B[cap=1]", max_grants_per_dest=1),
        ),
        WorkloadSpec(pattern="complement", load=0.7, seed=1),
        MeasurementPlan(warmup=8000, measure=10000, drain_limit=16000),
    )
    by_hand = run_cache_key(*run)
    assert [path.stem for path in cache.entries()] == [by_hand]
    assert cache.get_many([by_hand])[0].to_dict() == FastEngine(*run).run().to_dict()
