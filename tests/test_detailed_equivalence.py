"""Cycle-synchronous DetailedEngine vs the frozen process engine: bit-identity.

The clocked rewrite (one CycleDriver tick over flat router/NI arrays with
idle-skip, due-queues for flit deliveries and credit returns, request-driven
VC allocation) is only admissible because it changes *nothing* observable:
every :class:`RunResult` field except the executed-event count must match
the frozen process-based engine (``repro.perf.legacy_detailed``)
bit-for-bit, on the full (pattern x policy x load) matrix below.

The oracle shares the VC state machines, arbiters, credit counters and
flits with the live tree, and its comparison drops the event count, so
every detailed run here is also pinned on its own: executed events plus
the sweep fingerprint of the whole result, recorded before the lean flit
path (DESIGN.md §6).  A change to a shared primitive moves both sides of
the oracle comparison but not these pins.
"""

from functools import lru_cache
from itertools import product

import pytest

from repro.analysis.determinism import sweep_fingerprint
from repro.core.config import ControlParams, ERapidConfig, RouterParams
from repro.core.detailed import DetailedEngine
from repro.core.policies import make_policy
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.legacy_detailed import LegacyDetailedEngine
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=500.0, measure=1500.0, drain_limit=3000.0)


@lru_cache(maxsize=None)
def _run(engine_cls, pattern, policy, load, boards=2,
         nodes_per_board=4, seed=7, router=RouterParams()):
    """One run's result; cached, so a pin and its oracle comparison share
    the detailed run."""
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
    return engine.run()


def _comparable(engine_cls, pattern, policy, load, **kwargs):
    d = _run(engine_cls, pattern, policy, load, **kwargs).to_dict()
    # The one legitimate difference: how many kernel events the run took.
    d["extra"].pop("events")
    return d


# The non-DBR half of the 2x2 (the detailed engine rejects DBR): static
# and DPM-windowed links, from a light load to a saturating backlog ...
MATRIX = list(product(
    ("uniform", "complement"), ("NP-NB", "P-NB"), (0.2, 0.5, 0.8)
))


CELLS = MATRIX + [
    # ... plus one more permutation routing.
    ("perfect_shuffle", "NP-NB", 0.4),
]


@pytest.mark.parametrize("pattern,policy,load", CELLS)
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


ROUTER_CELLS = [("uniform", "P-NB", 0.5), ("complement", "NP-NB", 0.8)]


@pytest.mark.parametrize("router", sorted(ROUTERS))
@pytest.mark.parametrize("pattern,policy,load", ROUTER_CELLS)
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


#: (pattern, policy, load, router) -> (executed events, sweep fingerprint)
#: of the detailed run, recorded on the engine before the lean flit path.
#: Router ``None`` is the default router on R(1,2,4); a named router runs
#: on R(1,4,4).
PINNED = {
    ("uniform", "NP-NB", 0.2, None): (
        3808, "ec45f39eba366e90c1e612f0d0428276643534e2523c008cf1dc0dacaa5c1047"),
    ("uniform", "NP-NB", 0.5, None): (
        7364, "3cf527de352357e69b68d1a1a4b5bd3214f36f65b8b5f756be674d0d3d75583d"),
    ("uniform", "NP-NB", 0.8, None): (
        10029, "b04d49f4be6cfc0fc4d696467e9dc8f35e1d9469fa37c76cb7316ccf2abae867"),
    ("uniform", "P-NB", 0.2, None): (
        3842, "72f467aa92bc54bb3001663abe01269291ee86f53c16830ef1556181b13aadb4"),
    ("uniform", "P-NB", 0.5, None): (
        7454, "e966f78d7c1ec6305dd87886788f024ec1117c2a3d30e72ae8a860584dda0cc0"),
    ("uniform", "P-NB", 0.8, None): (
        10248, "83ddd7f151139670967ce956cba983ce6ddcbff0714af6fb1e044c6c19729720"),
    ("complement", "NP-NB", 0.2, None): (
        5302, "3dd4c8f1e67ff85ebb82428916ba394d2e5d54de3c057faa1a7c33cb90cfd892"),
    ("complement", "NP-NB", 0.5, None): (
        9584, "7fb89a0d8bc00c5d46c0d84c6166a08f84e82d7ff8e91f7549ee937691e984a9"),
    ("complement", "NP-NB", 0.8, None): (
        11612, "7548266bf55c2962ad76ea0903306750e86525a6630d8f0d6cc14da5bb7d12bc"),
    ("complement", "P-NB", 0.2, None): (
        5480, "d534f406f783f090af193f9fa7c8d6cb9c03ca2f80a98fe9176b8d6eccabe8f8"),
    ("complement", "P-NB", 0.5, None): (
        9615, "53f17da29f1dc47c3fc57d4a22d18b03ae10aefd97df3d0f9bad82a80e254d02"),
    ("complement", "P-NB", 0.8, None): (
        11643, "fd01d566b7d573aedb1d40f26ee0cb5d354edf3985eb976a8bebb6d2a39cddc4"),
    ("perfect_shuffle", "NP-NB", 0.4, None): (
        6114, "25cd1a4d7c208328f4a42680259665645066d42f856f336489af03647b5c6329"),
    ("uniform", "P-NB", 0.5, "credit3"): (
        22847, "5cfe25feec72bc22ca3c5a197468e1a524eab49b52d76ced7a22cdca9feacc57"),
    ("complement", "NP-NB", 0.8, "credit3"): (
        22652, "56be5cdc7c733bf8f156893238a0ad7e0609c4b06afbd63779ed5efd16ff00e8"),
    ("uniform", "P-NB", 0.5, "vc1_depth1"): (
        25744, "ce5bab8dffc34d4c05c8c661520ca7e60df79f6f6ef5cae15c21b8c4edfc37d4"),
    ("complement", "NP-NB", 0.8, "vc1_depth1"): (
        16067, "8594041d9ff3996efb8b3d6ba32b80fd7821a82ba23450eae4b96e3e79683481"),
    ("uniform", "P-NB", 0.5, "vc4_depth4"): (
        21237, "bc34d395bc6e7a8fc4c0cb65ac0d2d1179da291f91f29134b10ff6a281b64cef"),
    ("complement", "NP-NB", 0.8, "vc4_depth4"): (
        25980, "b6eb78407766ec231400a67c01b673121e7a446b0c91cb4cd1641beeb4733018"),
}


def test_pins_cover_every_oracle_cell():
    assert sorted(PINNED, key=repr) == sorted(
        [(*cell, None) for cell in CELLS]
        + [(*cell, router) for router in ROUTERS for cell in ROUTER_CELLS],
        key=repr,
    )


@pytest.mark.parametrize(
    "pattern,policy,load,router", sorted(PINNED, key=repr)
)
def test_detailed_tick_schedule_is_pinned(pattern, policy, load, router):
    """Every kernel event and every result bit of the oracle cells, pinned
    without the oracle: a change to the tick schedule (one more or one
    fewer armed tick) or to any shared primitive fails here."""
    kwargs = {} if router is None else {"boards": 4, "router": ROUTERS[router]}
    result = _run(DetailedEngine, pattern, policy, load, **kwargs)
    events, fingerprint = PINNED[(pattern, policy, load, router)]
    assert result.extra["events"] == events
    assert sweep_fingerprint({"run": [result]}) == fingerprint


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
