"""Arbiter fairness/rotation invariants and multi-cycle credit return.

Two properties here are load-bearing for the cycle-synchronous detailed
engine:

* An all-``False`` arbitration is a *stateless no-op* (no grant, pointer
  untouched).  The engine's idle-skip (``busy_vcs == 0`` routers don't
  tick) is only bit-identity-preserving because skipped cycles would not
  have advanced any arbiter.
* A credit returned through the fabric's credit due-queue must restore
  exactly ``credit_latency`` cycles after its flit traverses the router —
  including latencies > 1, which no default configuration exercises.
"""

import pytest
from hypothesis import given, strategies as st

from repro.network import Fabric, PacketFactory, RoundRobinArbiter, table_routing
from repro.sim import DueQueue, Simulator


# ----------------------------------------------------------------------
# Round-robin rotation / fairness invariants
# ----------------------------------------------------------------------

def test_idle_arbitration_is_a_stateless_noop():
    """Interleaving any number of all-False arbitrations must not change
    the grant sequence (the idle-skip correctness property)."""
    plain = RoundRobinArbiter(4)
    skippy = RoundRobinArbiter(4)
    pattern = [True, False, True, True]
    seq_plain = []
    seq_skippy = []
    for _ in range(12):
        seq_plain.append(plain.arbitrate(pattern))
        for _ in range(3):
            assert skippy.arbitrate([False] * 4) is None
        seq_skippy.append(skippy.arbitrate(pattern))
    assert seq_plain == seq_skippy


def test_winner_becomes_lowest_priority():
    """Immediately after a grant, the winner loses every head-to-head
    against any other requester."""
    n = 5
    for other in range(1, n):
        arb = RoundRobinArbiter(n)
        winner = arb.arbitrate([True] * n)
        assert winner == 0
        duel = [False] * n
        duel[winner] = True
        duel[other] = True
        assert arb.arbitrate(duel) == other


@given(
    st.integers(2, 6),
    st.lists(st.lists(st.booleans(), min_size=6, max_size=6),
             min_size=1, max_size=40),
)
def test_persistent_requester_bounded_wait(n, rounds):
    """Any requester asserted for n consecutive arbitrations is granted
    at least once within them, whatever the other request lines do."""
    arb = RoundRobinArbiter(n)
    victim = 0
    granted_gap = 0
    for row in rounds:
        reqs = row[:n]
        reqs[victim] = True
        if arb.arbitrate(reqs) == victim:
            granted_gap = 0
        else:
            granted_gap += 1
        assert granted_gap < n


@given(st.integers(1, 8), st.lists(st.lists(st.booleans(), min_size=8,
                                           max_size=8), max_size=40))
def test_grant_on_requester_ids_equals_arbitrate_on_the_mask(n, rounds):
    """The routers grant from ascending requester-id lists; every grant and
    every pointer move must equal a mask arbitration's."""
    by_mask = RoundRobinArbiter(n)
    by_ids = RoundRobinArbiter(n)
    for row in rounds:
        mask = row[:n]
        ids = [i for i, req in enumerate(mask) if req]
        expected = by_mask.arbitrate(mask)
        if ids:
            assert by_ids.grant(ids) == expected
        else:
            assert expected is None
        assert by_ids._pointer == by_mask._pointer


@given(st.integers(2, 6), st.integers(1, 30))
def test_full_load_grant_counts_balanced(n, rounds):
    """Under saturation the grant-count spread never exceeds one."""
    arb = RoundRobinArbiter(n)
    counts = [0] * n
    for _ in range(rounds * n + (n // 2)):
        counts[arb.arbitrate([True] * n)] += 1
    assert max(counts) - min(counts) <= 1


# ----------------------------------------------------------------------
# Credit return at credit_latency != 1
# ----------------------------------------------------------------------

def _one_flit_through(credit_latency, dues=None):
    """Push a single-flit packet through a 2-port router on a fabric;
    return the (traversal_time, restores) pair observed at input port 0,
    each restore stamped with the time the fabric's tick applied it.
    When ``dues`` is a list, the due time of every port-0 credit pushed
    onto the fabric's credit due-queue is appended to it."""
    sim = Simulator()
    fabric = Fabric(sim)
    restores = []

    def restore(vc):
        restores.append((sim.now, vc))

    if dues is not None:
        class RecordingDueQueue(DueQueue):
            def push(self, due, item):
                if item[0] is restore:
                    dues.append(due)
                super().push(due, item)

        fabric.credits = RecordingDueQueue()
    router = fabric.add_router(
        n_ports=2, routing_fn=table_routing({1: 1}),
        n_vcs=2, buf_depth=2, credit_latency=credit_latency, name="r",
    )
    router.set_credit_return(0, restore)
    delivered = []
    fabric.add_sink(router, 1, on_packet=delivered.append, name="snk")

    pkt = PacketFactory(size_bytes=8, flit_bytes=8).make(0, 1, 0.0)
    flit = pkt.flits()[0]
    flit.vc = 0
    router.receive_flit(flit, 0)
    fabric.driver.arm(sim.now)
    sim.run(until=60)

    assert len(delivered) == 1
    # Channel = 4 serialization + 1 wire cycles after traversal.
    traversal = delivered[0].delivered_at - 5
    return traversal, restores


@pytest.mark.parametrize("latency", [1, 3, 7])
def test_credit_returns_exactly_latency_after_traversal(latency):
    traversal, restores = _one_flit_through(latency)
    assert restores == [(traversal + latency, 0)]


@pytest.mark.parametrize("latency", [0, -1])
def test_credit_latency_below_one_cycle_is_refused(latency):
    """The router refuses a credit that would return in the cycle its
    flit traverses, or earlier: it would be applied before the router's
    own stage ran (the fabric ticks credits, then routers, then pumps)."""
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="credit latency"):
        _one_flit_through(latency)


@pytest.mark.parametrize("latency", [1, 3, 7])
def test_ring_credit_due_time_matches_event_path(latency):
    """The credit due-queue entry must come due exactly ``latency`` cycles
    after traversal, and the fabric's tick must apply it at that instant,
    for any credit latency."""
    dues = []
    traversal, restores = _one_flit_through(latency, dues=dues)
    assert dues == [traversal + latency]
    assert [t for t, _ in restores] == dues
    assert [vc for _, vc in restores] == [0]


def test_buf_depth_one_throughput_throttled_by_credit_latency():
    """With single-flit buffers, a long credit loop rate-limits the
    upstream: packet delivery must spread out as latency grows."""
    def finish_time(latency):
        sim = Simulator()
        fabric = Fabric(sim)
        router = fabric.add_router(
            n_ports=2, routing_fn=table_routing({1: 1}),
            n_vcs=1, buf_depth=1, credit_latency=latency, name="r",
        )
        restores = []
        router.set_credit_return(0, lambda vc: restores.append(sim.now))
        delivered = []
        fabric.add_sink(router, 1, on_packet=delivered.append, name="snk")
        pkt = PacketFactory(size_bytes=32, flit_bytes=8).make(0, 1, 0.0)
        flits = pkt.flits()
        def feed(i=0):
            # Respect flow control: push flit i when credit i-1 is back
            # (initially one slot is free).
            flits[i].vc = 0
            router.receive_flit(flits[i], 0)
            fabric.driver.arm(sim.now)
            if i + 1 < len(flits):
                want = i + 1
                def maybe(_=None):
                    if len(restores) >= want:
                        feed(i + 1)
                    else:
                        sim.schedule(1, maybe)
                sim.schedule(1, maybe)
        feed()
        sim.run(until=500)
        assert len(delivered) == 1
        return delivered[0].delivered_at

    assert finish_time(9) > finish_time(1)


def test_detailed_engine_matches_frozen_at_multi_cycle_credit():
    """A router credit latency above the sink's one-cycle ejection credit
    makes the shared credit due-queue receive pushes out of due order;
    the engine must still match the frozen process engine bit for bit."""
    from dataclasses import replace

    from repro.core.config import ControlParams, ERapidConfig
    from repro.core.detailed import DetailedEngine
    from repro.core.policies import make_policy
    from repro.metrics.collector import MeasurementPlan
    from repro.network.topology import ERapidTopology
    from repro.perf.legacy_detailed import LegacyDetailedEngine
    from repro.traffic.workload import WorkloadSpec

    base = ERapidConfig(
        topology=ERapidTopology(boards=2, nodes_per_board=4),
        policy=make_policy("P-NB"),
        control=ControlParams(window_cycles=500),
        seed=7,
    )
    config = replace(base, router=replace(base.router, credit_cycles=3))
    plan = MeasurementPlan(warmup=200.0, measure=600.0, drain_limit=1200.0)
    results = []
    for engine_cls in (DetailedEngine, LegacyDetailedEngine):
        d = engine_cls(
            config, WorkloadSpec(pattern="uniform", load=0.5, seed=7), plan
        ).run().to_dict()
        d["extra"].pop("events")
        results.append(d)
    assert results[0] == results[1]
