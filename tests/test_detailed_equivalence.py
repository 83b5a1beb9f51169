"""Cycle-synchronous DetailedEngine vs the frozen process engine: bit-identity.

The clocked rewrite (one CycleDriver tick over flat router/NI arrays with
idle-skip, due-queues for flit deliveries and credit returns, request-driven
VC allocation) is only admissible because it changes *nothing* observable:
every :class:`RunResult` field except the executed-event count must match
the frozen process-based engine (``repro.perf.legacy_detailed``)
bit-for-bit, on the full (pattern x policy x load) matrix below.
"""

from itertools import product

import pytest

from repro.core.config import ControlParams, ERapidConfig, RouterParams
from repro.core.detailed import DetailedEngine
from repro.core.policies import make_policy
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.legacy_detailed import LegacyDetailedEngine
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=500.0, measure=1500.0, drain_limit=3000.0)


def _comparable(engine_cls, pattern, policy, load, boards=2,
                nodes_per_board=4, seed=7, router=RouterParams()):
    config = ERapidConfig(
        topology=ERapidTopology(boards=boards, nodes_per_board=nodes_per_board),
        router=router,
        policy=make_policy(policy),
        control=ControlParams(window_cycles=500),
        seed=seed,
    )
    engine = engine_cls(
        config, WorkloadSpec(pattern=pattern, load=load, seed=seed), PLAN
    )
    d = engine.run().to_dict()
    # The one legitimate difference: how many kernel events the run took.
    d["extra"].pop("events")
    return d


# The non-DBR half of the 2x2 (the detailed engine rejects DBR): static
# and DPM-windowed links, from a light load to a saturating backlog ...
MATRIX = list(product(
    ("uniform", "complement"), ("NP-NB", "P-NB"), (0.2, 0.5, 0.8)
))


@pytest.mark.parametrize("pattern,policy,load", MATRIX + [
    # ... plus one more permutation routing.
    ("perfect_shuffle", "NP-NB", 0.4),
])
def test_clocked_rewrite_is_bit_identical(pattern, policy, load):
    new = _comparable(DetailedEngine, pattern, policy, load)
    old = _comparable(LegacyDetailedEngine, pattern, policy, load)
    assert new == old


def test_clocked_rewrite_bit_identical_larger_platform():
    """A 4-board platform exercises cross-board wavelength fan-out (every
    remote transmitter/receiver pair live) at moderate DPM load."""
    new = _comparable(DetailedEngine, "uniform", "P-NB", 0.4, boards=4)
    old = _comparable(LegacyDetailedEngine, "uniform", "P-NB", 0.4, boards=4)
    assert new == old


#: Routers other than the default (n_vcs=2, buf_depth=2, credit_cycles=1):
#: more and deeper VCs, a slow credit return (whose credits land behind
#: later sink credits on the due-queue), and one single-flit VC.
ROUTERS = {
    "vc4_depth4": RouterParams(n_vcs=4, buf_depth=4),
    "credit3": RouterParams(credit_cycles=3),
    "vc1_depth1": RouterParams(n_vcs=1, buf_depth=1),
}


@pytest.mark.parametrize("router", sorted(ROUTERS))
@pytest.mark.parametrize("pattern,policy,load", [
    ("uniform", "P-NB", 0.5), ("complement", "NP-NB", 0.8),
])
def test_clocked_rewrite_bit_identical_beyond_default_router(
    router, pattern, policy, load
):
    """R(1,4,4) on each non-default router, where the VA/SA worklists
    see other VC counts, buffer depths and credit timings."""
    params = ROUTERS[router]
    new = _comparable(
        DetailedEngine, pattern, policy, load, boards=4, router=params
    )
    old = _comparable(
        LegacyDetailedEngine, pattern, policy, load, boards=4, router=params
    )
    assert new == old


def test_clocked_rewrite_bit_identical_across_seeds():
    """Different seeds shift injection draws onto different fractional
    grids; the clocked NI pumps must track each grid exactly."""
    for seed in (1, 11):
        new = _comparable(
            DetailedEngine, "uniform", "P-NB", 0.6, seed=seed
        )
        old = _comparable(
            LegacyDetailedEngine, "uniform", "P-NB", 0.6, seed=seed
        )
        assert new == old


def test_clocked_rewrite_event_count_collapses():
    """Sanity that the comparison above is not vacuous: the clocked engine
    replaces per-cycle router/NI processes and per-flit channel events with
    batched tick work, so it must execute *far* fewer kernel events."""
    config = ERapidConfig(
        topology=ERapidTopology(boards=2, nodes_per_board=4),
        policy=make_policy("P-NB"),
        control=ControlParams(window_cycles=500),
        seed=7,
    )
    wl = WorkloadSpec(pattern="uniform", load=0.5, seed=7)
    new = DetailedEngine(config, wl, PLAN)
    new.run()
    old = LegacyDetailedEngine(config, wl, PLAN)
    old.run()
    assert new.sim.event_count < old.sim.event_count / 2
