"""JobSpec: validation, wire round-trip, and key semantics.

The job key is the service's dedup identity, so its sensitivity matters
both ways: every work-defining field must move the key, and priority —
deliberately excluded — must not.
"""

import pytest

from repro.errors import JobSpecError
from repro.service.spec import PRIORITIES, JobSpec


def test_defaults_build_a_figure5_sweep():
    spec = JobSpec()
    assert spec.kind == "sweep"
    assert spec.total_runs == 20  # 5 loads x 4 policies
    assert spec.priority == "bulk"


def test_run_kind_defaults_to_interactive_priority():
    spec = JobSpec(kind="run", loads=(0.5,), policies=("P-B",))
    assert spec.priority == "interactive"
    assert spec.total_runs == 1


def test_run_kind_requires_exactly_one_load_and_policy():
    with pytest.raises(JobSpecError):
        JobSpec(kind="run", loads=(0.2, 0.4), policies=("P-B",))
    with pytest.raises(JobSpecError):
        JobSpec(kind="run", loads=(0.5,), policies=("P-B", "NP-B"))


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="mystery"),
        dict(pattern="nope"),
        dict(loads=()),
        dict(policies=()),
        dict(policies=("P-B", "bogus")),
        dict(loads=(0.0,)),
        dict(loads=(1.5,)),
        dict(loads=(0.2, 0.2)),
        dict(policies=("P-B", "P-B")),
        dict(priority="urgent"),
        dict(warmup=-1.0),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(JobSpecError):
        JobSpec(**bad)


def test_round_trip_preserves_identity():
    spec = JobSpec(
        pattern="complement",
        loads=(0.2, 0.6),
        policies=("NP-NB", "P-B"),
        boards=4,
        nodes_per_board=4,
        seed=7,
        priority="interactive",
    )
    again = JobSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.job_key() == spec.job_key()


def test_from_dict_rejects_unknown_fields():
    data = JobSpec().to_dict()
    data["gpu"] = True
    with pytest.raises(JobSpecError, match="unknown job spec fields"):
        JobSpec.from_dict(data)


def test_from_dict_rejects_non_mapping_and_bad_sequences():
    with pytest.raises(JobSpecError):
        JobSpec.from_dict([1, 2, 3])
    with pytest.raises(JobSpecError):
        JobSpec.from_dict({"loads": 0.5})


def test_key_moves_with_every_work_field():
    base = JobSpec()
    variants = [
        JobSpec(pattern="complement"),
        JobSpec(loads=(0.1, 0.3, 0.5, 0.7)),
        JobSpec(policies=("NP-NB", "P-NB", "NP-B")),
        JobSpec(boards=4),
        JobSpec(nodes_per_board=4),
        JobSpec(seed=2),
        JobSpec(warmup=4000.0),
        JobSpec(measure=6000.0),
        JobSpec(drain_limit=30000.0),
    ]
    keys = {base.job_key()} | {v.job_key() for v in variants}
    assert len(keys) == len(variants) + 1  # all distinct


def test_priority_does_not_move_the_key():
    assert (
        JobSpec(priority="interactive").job_key()
        == JobSpec(priority="bulk").job_key()
    )


def test_key_includes_kernel_version():
    from repro.sim.kernel import KERNEL_VERSION

    payload = JobSpec().work_payload()
    assert payload["kernel_version"] == KERNEL_VERSION


def test_run_descriptions_are_policy_major_load_ordered():
    spec = JobSpec(loads=(0.2, 0.4), policies=("NP-NB", "P-B"))
    tasks = spec.tasks()
    assert [(t.config.policy.name, t.workload.load) for t in tasks] == [
        ("NP-NB", 0.2),
        ("NP-NB", 0.4),
        ("P-B", 0.2),
        ("P-B", 0.4),
    ]
    for t in tasks:
        assert t.workload.pattern == spec.pattern
        assert t.workload.seed == spec.seed
        assert t.config.topology.boards == spec.boards
        assert t.plan == spec.plan()


def test_priority_rank_matches_registry():
    assert JobSpec(priority="interactive").priority_rank() == PRIORITIES[
        "interactive"
    ]
    assert JobSpec(priority="bulk").priority_rank() == PRIORITIES["bulk"]


# ----------------------------------------------------------------------
# Engine field (batch tier)
# ----------------------------------------------------------------------
def test_engine_defaults_to_fast_and_validates():
    assert JobSpec().engine == "fast"
    assert JobSpec(engine="batch").engine == "batch"
    with pytest.raises(JobSpecError):
        JobSpec(engine="warp")


def test_fast_engine_keeps_historical_job_keys_stable():
    """engine="fast" must not enter the payload: every job key minted
    before the field existed has to keep resolving to the same work."""
    payload = JobSpec().work_payload()
    assert "engine" not in payload
    assert JobSpec().job_key() == JobSpec(engine="fast").job_key()


def test_batch_engine_moves_the_job_key():
    assert JobSpec(engine="batch").job_key() != JobSpec().job_key()
    assert JobSpec(engine="batch").work_payload()["engine"] == "batch"


def test_engine_round_trips_through_the_wire_format():
    spec = JobSpec(engine="batch")
    assert spec.to_dict()["engine"] == "batch"
    assert JobSpec.from_dict(spec.to_dict()) == spec
