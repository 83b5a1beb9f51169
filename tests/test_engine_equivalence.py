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


# ----------------------------------------------------------------------
# The executed event stream, pinned
# ----------------------------------------------------------------------
#: ``extra["events"]`` and the sweep fingerprint (every RunResult field,
#: ``events`` included) of service-plan R(1,4,4) runs at 0.5 N_c, seed 1,
#: recorded before the kernel gained its continuation lane and the fast
#: engine its own transmitter queues.  The ledger's service_mix and
#: detailed_xval goldens pin these counts too; the cells above drop them.
SERVICE_PLAN = MeasurementPlan(warmup=500.0, measure=1000.0, drain_limit=1500.0)
PINNED_EVENTS = {
    ("fast", "NP-NB", "uniform"): (
        4170, "be71405ad08dae2fcc812ead1a12d4d4c13d4ba68b8a34f7e831c20a7ce1b523"),
    ("fast", "NP-NB", "complement"): (
        3698, "7e9331013742a0a1220386f9bed346a9cb61f6263213ac84b8a33051673345dc"),
    ("fast", "P-B", "uniform"): (
        4138, "742329f2bd3c815f02ee498e6cf0b5eb49d7dc2851607ef14ce9e1cbb726c229"),
    ("fast", "P-B", "complement"): (
        3703, "83370596e0bcf003e259cf5c9199ab8e70b6d2541bbb2fb54c67ff1237a9a996"),
    ("detailed", "NP-NB", "uniform"): (
        13514, "f5e1d0fec7f4d3cc529df5d8c355abc8bac63cf2a9c63f2d2698ad09763aa522"),
}


@pytest.mark.parametrize("engine,policy,pattern", sorted(PINNED_EVENTS))
def test_event_stream_is_pinned(engine, policy, pattern):
    from repro.analysis.determinism import sweep_fingerprint
    from repro.core.detailed import DetailedEngine
    from repro.core.policies import POLICIES

    config = ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4),
        policy=POLICIES[policy],
    )
    workload = WorkloadSpec(pattern=pattern, load=0.5, seed=1)
    cls = FastEngine if engine == "fast" else DetailedEngine
    result = cls(config, workload, SERVICE_PLAN).run()
    events, fingerprint = PINNED_EVENTS[(engine, policy, pattern)]
    assert result.extra["events"] == events
    assert sweep_fingerprint({"run": [result]}) == fingerprint
