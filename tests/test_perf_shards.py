"""Shard planning is a pure, deterministic function of (tasks, jobs).

The plan is scheduling metadata only — the executor and bench gate that
layout never changes result bits — so these tests pin the planning
contract itself: the shard-size heuristic's clamps, slab-boundary
respect, task-order preservation within shards, and the stability of the
plan across repeated calls.  Tests that need narrow shards clamp the
planner through its module constants, as any layout experiment must.
"""

import pytest

from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.executor import RunTask
from repro.perf.shards import (
    MIN_SHARD,
    OVERSUBSCRIBE,
    SLAB_CAP,
    ShardSpec,
    effective_shard_size,
    plan_shards,
)
from repro.traffic.workload import WorkloadSpec

TINY_PLAN = MeasurementPlan(warmup=200, measure=600, drain_limit=1500)


@pytest.fixture()
def two_run_shards(monkeypatch):
    """Clamp the planner to 2-run batch shards at every ``jobs``."""
    import repro.perf.shards as shards

    monkeypatch.setattr(shards, "SLAB_CAP", 2)
    monkeypatch.setattr(shards, "MIN_SHARD", 2)


def make_tasks(loads=(0.2, 0.3, 0.4), policies=("NP-NB", "P-B"), patterns=("uniform",)):
    base = ERapidConfig(topology=ERapidTopology(boards=2, nodes_per_board=4))
    tasks = []
    for pattern in patterns:
        for policy in policies:
            config = base.with_policy(POLICIES[policy])
            for load in loads:
                tasks.append(
                    RunTask(config, WorkloadSpec(pattern, load, seed=1), TINY_PLAN)
                )
    return tasks


# ----------------------------------------------------------------------
# effective_shard_size
# ----------------------------------------------------------------------
def test_jobs1_uses_full_slab_cap():
    assert effective_shard_size(covered=1000, jobs=1) == SLAB_CAP
    assert effective_shard_size(covered=3, jobs=1) == SLAB_CAP


def test_heuristic_targets_oversubscribed_workers():
    # 144 covered runs on 4 workers × OVERSUBSCRIBE shards each.
    expected = -(-144 // (4 * OVERSUBSCRIBE))  # ceil division
    assert MIN_SHARD <= expected <= SLAB_CAP
    assert effective_shard_size(covered=144, jobs=4) == expected


def test_heuristic_clamps_to_min_shard():
    # Tiny grids would otherwise shatter into 1-run shards whose
    # BatchEngine construction cost dominates.
    assert effective_shard_size(covered=10, jobs=8) == MIN_SHARD


def test_heuristic_clamps_to_slab_cap():
    assert effective_shard_size(covered=100_000, jobs=2) == SLAB_CAP


def test_zero_covered_is_well_defined():
    assert effective_shard_size(covered=0, jobs=4) == SLAB_CAP


# ----------------------------------------------------------------------
# plan_shards
# ----------------------------------------------------------------------
def test_plan_covers_every_index_exactly_once(two_run_shards):
    tasks = make_tasks(patterns=("uniform", "complement"))
    plan = plan_shards(tasks, jobs=2)
    assert plan.shard_size == 2
    seen = [i for shard in plan.shards for i in shard.indices]
    assert sorted(seen) == list(range(len(tasks)))
    assert plan.covered_runs + len(plan.scalar_indices) == len(tasks)


def test_shards_never_cross_slab_boundaries(two_run_shards):
    from repro.core.batch import slab_key

    tasks = make_tasks(patterns=("uniform", "complement"))
    plan = plan_shards(tasks, jobs=4)
    for shard in plan.batch_shards:
        keys = {
            slab_key(tasks[i].config, tasks[i].workload, tasks[i].plan)
            for i in shard.indices
        }
        assert len(keys) == 1, shard


def test_shard_indices_keep_task_order(two_run_shards):
    tasks = make_tasks()
    plan = plan_shards(tasks, jobs=2)
    for shard in plan.batch_shards:
        assert list(shard.indices) == sorted(shard.indices)


def test_plan_is_deterministic(two_run_shards):
    tasks = make_tasks(patterns=("uniform", "complement"))
    a = plan_shards(tasks, jobs=3)
    b = plan_shards(tasks, jobs=3)
    assert a == b


def test_uncovered_tasks_land_in_one_trailing_scalar_shard():
    # Hotspot traffic is neither uniform nor a permutation, so
    # coverage_gap is non-None and the point must fall back.
    from repro.core.batch import coverage_gap

    covered = make_tasks()
    config = ERapidConfig(
        topology=ERapidTopology(boards=2, nodes_per_board=4)
    ).with_policy(POLICIES["P-B"])
    gap_task = RunTask(config, WorkloadSpec("hotspot", 0.2, seed=1), TINY_PLAN)
    assert coverage_gap(gap_task.config, gap_task.workload, gap_task.plan)
    tasks = covered + [gap_task]

    plan = plan_shards(tasks, jobs=2)
    assert plan.scalar_indices == (len(tasks) - 1,)
    scalar = plan.shards[-1]
    assert scalar.kind == "scalar"
    assert scalar.shard_id == len(plan.shards) - 1
    assert all(s.kind == "batch" for s in plan.shards[:-1])


def test_describe_summarizes_layout(two_run_shards):
    tasks = make_tasks()
    plan = plan_shards(tasks, jobs=2)
    text = plan.describe()
    assert text.startswith(f"shard plan: {len(tasks)} covered runs in ")
    assert f"{len(plan.batch_shards)} batch shard(s) of <= 2 runs" in text
    assert "0 scalar fallback run(s) on jobs=2" in text


def test_shard_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ShardSpec(shard_id=0, kind="mystery", indices=(0,))


def test_shard_report_carries_optional_telemetry():
    from repro.perf.shards import ShardReport

    plain = ShardReport(shard_id=0, kind="scalar", runs=3, seconds=0.5)
    assert plain.telemetry is None
    assert "telemetry" not in plain.to_dict()

    tel = {"cycles_executed": 10, "cycles_skipped": 90, "horizon": 100}
    batch = ShardReport(
        shard_id=1, kind="batch", runs=4, seconds=0.2, telemetry=tel
    )
    assert batch.to_dict()["telemetry"] == tel


def test_run_sweep_batched_reports_shard_telemetry():
    from repro.perf.executor import run_sweep_batched

    tasks = make_tasks()
    reports = []
    run_sweep_batched(tasks, jobs=1, on_shard=reports.append)
    batch_reports = [r for r in reports if r.kind == "batch"]
    assert batch_reports
    for report in batch_reports:
        tel = report.telemetry
        assert tel is not None
        assert tel["cycles_executed"] > 0
        assert tel["cycles_executed"] + tel["cycles_skipped"] <= tel["horizon"]


def test_plan_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        plan_shards(make_tasks(), jobs=0)
