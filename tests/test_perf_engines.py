"""The engine table: each entry's contract, and every site that reads it."""

import argparse

import pytest

from repro.cli import build_parser
from repro.core.batch import BatchEngine, coverage_gap
from repro.core.config import ERapidConfig
from repro.core.detailed import DetailedEngine
from repro.core.engine import FastEngine
from repro.core.policies import POLICIES
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.engines import CACHED, DEFAULT_ENGINE, ENGINES
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=200, measure=600, drain_limit=1500)

GRID = [
    (pattern, policy)
    for pattern in ("uniform", "complement", "hotspot")
    for policy in ("NP-NB", "P-B")
]


def point(pattern, policy):
    config = ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4),
        policy=POLICIES[policy],
    )
    return config, WorkloadSpec(pattern, 0.3, seed=1), PLAN


def rejection(build):
    """The constructor's ConfigurationError message, or None if it builds."""
    try:
        build()
    except ConfigurationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("pattern,policy", GRID)
def test_covers_is_none_exactly_when_the_engine_accepts_the_point(
    pattern, policy
):
    run = point(pattern, policy)
    assert ENGINES["fast"].covers(*run) is None
    assert rejection(lambda: FastEngine(*run)) is None

    gap = ENGINES["batch"].covers(*run)
    assert gap == coverage_gap(*run)
    assert (gap is None) == (pattern != "hotspot")
    batch_error = rejection(lambda: BatchEngine([run]))
    assert batch_error == (None if gap is None else f"run 0 not batchable: {gap}")

    reason = ENGINES["detailed"].covers(*run)
    assert reason == rejection(lambda: DetailedEngine(*run))
    assert (reason is None) == (not POLICIES[policy].dbr)
    if reason is not None:
        assert "cannot run DBR" in reason


def test_detailed_engine_refuses_dpm_smoothing():
    """The detailed link controllers decide DPM on the raw window counter,
    so a smoothing policy would silently run as its unsmoothed twin; the
    table must send it to the fast engine instead."""
    from dataclasses import replace

    config, workload, plan = point("uniform", "P-NB")
    smooth = replace(
        config, policy=replace(config.policy, name="P-NB[ewma]", dpm_smoothing=0.7)
    )
    reason = ENGINES["detailed"].covers(smooth, workload, plan)
    assert reason is not None and "dpm_smoothing=0.7" in reason
    assert reason == rejection(lambda: DetailedEngine(smooth, workload, plan))
    assert ENGINES["detailed"].covers(config, workload, plan) is None


def engine_flags(parser):
    """``{subcommand: --engine action}`` for every subcommand that has one."""
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: action
        for name, command in sub.choices.items()
        for action in command._actions
        if "--engine" in action.option_strings
    }


def test_every_engine_flag_reads_the_table():
    flags = engine_flags(build_parser())
    assert {name: tuple(a.choices) for name, a in flags.items()} == {
        "profile": tuple(ENGINES),
        "sweep": CACHED,
        "reproduce": CACHED,
        "submit": CACHED,
    }
    assert {a.default for a in flags.values()} == {DEFAULT_ENGINE}


@pytest.mark.parametrize(
    "engine,executor", [("fast", "execute_tasks"), ("batch", "run_sweep_batched")]
)
def test_run_cached_reaches_the_entrys_executor_by_keyword(
    monkeypatch, engine, executor
):
    """``run_cached`` runs its misses through the entry's executor, looked
    up on ``repro.perf.executor`` at call time, with ``jobs``/``on_result``/
    ``pool`` (and batch's ``on_shard``) passed by keyword: the call shape a
    wrapper that rewrites a keyword argument relies on."""
    from repro.perf import executor as executor_mod

    calls = []

    def keyword_only(tasks, *, jobs, on_result, **kwargs):
        calls.append((len(tasks), jobs, sorted(kwargs)))
        for i, task in enumerate(tasks):
            on_result(i, executor_mod.execute_run(task))

    monkeypatch.setattr(executor_mod, executor, keyword_only)
    run = point("complement", "NP-NB")
    task = executor_mod.RunTask(*run)
    results, _ = executor_mod.run_cached([task], jobs=1, engine=engine)
    assert calls == [(1, 1, ["on_shard", "pool"] if engine == "batch" else ["pool"])]
    assert results[0].labeled_delivered > 0


def test_cached_entries_are_the_executable_ones():
    for name, entry in ENGINES.items():
        cached = name in CACHED
        assert (entry.key_fields is not None) == cached
        assert (entry.execute is not None) == cached
    assert ENGINES[DEFAULT_ENGINE].key_fields() == {}
