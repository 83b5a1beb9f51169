"""Callback FastEngine vs the frozen coroutine engine: bit-identity.

The hot-path rewrite (callback state machines, fused timed holds, batched
gap sampling, owner-indexed channel lookups) is only admissible because it
changes *nothing* observable: every :class:`RunResult` field except the
executed-event count must match the coroutine engine bit-for-bit, on the
full (pattern x policy x load) matrix below.
"""

from itertools import product

import pytest

from repro.core.config import ControlParams, ERapidConfig
from repro.core.engine import FastEngine
from repro.core.policies import make_policy
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.legacy_engine import LegacyFastEngine
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=500.0, measure=1500.0, drain_limit=3000.0)


def _comparable(engine_cls, pattern, policy, load, seed=1, failure=None):
    config = ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4),
        policy=make_policy(policy),
        control=ControlParams(window_cycles=500),
        seed=seed,
    )
    engine = engine_cls(
        config, WorkloadSpec(pattern=pattern, load=load, seed=seed), PLAN
    )
    if failure is not None:
        engine.inject_laser_failure(*failure)
    d = engine.run().to_dict()
    # The one legitimate difference: how many kernel events the run took.
    d["extra"].pop("events")
    return d


# One non-permutation and one permutation panel (scalar and batched gap
# sampling), every policy, from a static light load to saturation.  PLAN
# is long enough that fusing the send port's two holds (DESIGN.md §5)
# swaps a same-time delivery in two of these cells ...
MATRIX = list(product(
    ("uniform", "complement"),
    ("NP-NB", "P-NB", "NP-B", "P-B"),
    (0.2, 0.5, 0.9),
))


@pytest.mark.parametrize("pattern,policy,load", MATRIX + [
    # ... plus two patterns off the paper's grid.
    ("bit_reverse", "P-NB", 0.4),    # batched gap path, DPM only
    ("hotspot", "NP-B", 0.5),        # random dests, DBR-driven grants
])
def test_rewrite_is_bit_identical(pattern, policy, load):
    new = _comparable(FastEngine, pattern, policy, load)
    old = _comparable(LegacyFastEngine, pattern, policy, load)
    assert new == old


def test_rewrite_is_bit_identical_under_failure():
    """Laser failure exercises the blocked-sender readmit path (parked
    packets re-entering service from a DBR grant)."""
    failure = (3, 1, 300.0)
    new = _comparable(
        FastEngine, "complement", "P-B", 0.6, seed=3, failure=failure
    )
    old = _comparable(
        LegacyFastEngine, "complement", "P-B", 0.6, seed=3, failure=failure
    )
    assert new == old


def test_rewrite_event_count_differs():
    """Sanity that the comparison above is not vacuous: the callback
    engine really does execute fewer kernel events (fused timed holds),
    so ``events`` is excluded for a reason."""
    config = ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4),
        policy=make_policy("P-B"),
        control=ControlParams(window_cycles=500),
        seed=1,
    )
    wl = WorkloadSpec(pattern="uniform", load=0.4, seed=1)
    new = FastEngine(config, wl, PLAN)
    new.run()
    old = LegacyFastEngine(config, wl, PLAN)
    old.run()
    assert new.sim.event_count < old.sim.event_count


def test_rewrite_keeps_the_zero_delay_send_pop_hop():
    """After a remote packet enters its transmitter queue, the send port
    pops its next packet one zero-delay continuation later, as the
    coroutine's resume did.  Calling ``_send_pop`` directly instead moves
    that pop, and everything it schedules, earlier among same-time
    events; on this point (the R_w = 4000 ablation row, full paper plan)
    the mean latency then differs from the coroutine engine's, so the
    hop stays.  The 26 cells above do not tell the two apart."""
    config = ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4),
        policy=make_policy("P-B"),
        control=ControlParams(window_cycles=4000),
    )
    workload = WorkloadSpec(pattern="uniform", load=0.5, seed=1)
    plan = MeasurementPlan(warmup=8000.0, measure=10000.0, drain_limit=16000.0)
    new = FastEngine(config, workload, plan).run().to_dict()
    old = LegacyFastEngine(config, workload, plan).run().to_dict()
    new["extra"].pop("events")
    old["extra"].pop("events")
    assert new == old
