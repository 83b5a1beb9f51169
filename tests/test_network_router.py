"""Integration tests for the cycle-accurate VC router + NIs.

Every star here runs on :class:`repro.network.Fabric`, the clock loop the
detailed engine runs, and ``test_star_matches_frozen_process_substrate``
pins its per-packet timestamps to the frozen process-driven substrate
(``repro.perf.legacy_detailed``) exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    ERapidTopology,
    Fabric,
    PacketFactory,
    Ring,
    SinkNI,
    ibi_routing,
    table_routing,
)
from repro.errors import ConfigurationError, TopologyError
from repro.network.interface import SourceNI
from repro.network.vc import VCStatus
from repro.sim import Simulator


def build_star(n_nodes=4, n_vcs=2, buf_depth=2, ports=None, credit_latency=1):
    """A single-router 'IBI' star: port i = node i (inject + eject).

    ``ports`` is the order the per-port NIs are created in (and so the
    order the fabric pumps the source NIs); the default is ascending.
    """
    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=n_nodes,
        routing_fn=table_routing({d: d for d in range(n_nodes)}),
        n_vcs=n_vcs,
        buf_depth=buf_depth,
        credit_latency=credit_latency,
        name="star",
    )
    delivered = []
    sources = [None] * n_nodes
    sinks = [None] * n_nodes
    for p in range(n_nodes) if ports is None else ports:
        sinks[p] = fabric.add_sink(
            router, p, on_packet=delivered.append, name=f"sink{p}"
        )
        sources[p] = fabric.add_source(router, p, name=f"src{p}")
    return sim, router, sources, sinks, delivered


def build_frozen_star(n_nodes=4, n_vcs=2, buf_depth=2, credit_latency=1):
    """The same star on the frozen process-driven router and NIs."""
    from repro.perf.legacy_detailed import _SinkNI, _SourceNI, _VCRouter

    sim = Simulator()
    router = _VCRouter(
        sim,
        n_ports=n_nodes,
        routing_fn=table_routing({d: d for d in range(n_nodes)}),
        n_vcs=n_vcs,
        buf_depth=buf_depth,
        credit_latency=credit_latency,
        name="star",
    )
    delivered = []
    sources = []
    sinks = []
    for p in range(n_nodes):
        sinks.append(_SinkNI(sim, on_packet=delivered.append, name=f"sink{p}"))
        sinks[-1].attach(router, p)
        sources.append(_SourceNI(sim, router, p, name=f"src{p}"))
    router.start()
    return sim, router, sources, sinks, delivered


def test_single_packet_traverses_router():
    sim, router, sources, sinks, delivered = build_star()
    pkt = PacketFactory().make(src=0, dst=2, now=0.0)
    sources[0].send(pkt)
    sim.run(until=500)
    assert delivered == [pkt]
    assert pkt.delivered_at is not None
    assert pkt.latency > 0
    assert router.packets_routed == 1
    assert router.flits_routed == 8


def test_packet_to_every_destination():
    sim, _, sources, _, delivered = build_star(n_nodes=4)
    factory = PacketFactory()
    pkts = [factory.make(src=0, dst=d, now=0.0) for d in range(1, 4)]
    for p in pkts:
        sources[0].send(p)
    sim.run(until=2000)
    assert sorted(p.pid for p in delivered) == sorted(p.pid for p in pkts)


def test_all_to_one_contention_delivers_everything():
    """4 sources hammer one sink; all packets must still arrive (no loss)."""
    sim, _, sources, sinks, delivered = build_star(n_nodes=4)
    factory = PacketFactory()
    pkts = []
    for src in range(4):
        if src == 3:
            continue
        for _ in range(5):
            p = factory.make(src=src, dst=3, now=0.0)
            pkts.append(p)
            sources[src].send(p)
    sim.run(until=20_000)
    assert len(delivered) == len(pkts)
    assert sinks[3].packets_received == len(pkts)


def test_flits_of_a_packet_stay_in_order():
    order = []

    class OrderSink(SinkNI):
        def receive_flit(self, flit, port):
            order.append(flit.index)
            super().receive_flit(flit, port)

    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=2, routing_fn=table_routing({0: 0, 1: 1}), n_vcs=2, buf_depth=2
    )
    sink = OrderSink(sim, fabric.deliveries, fabric.credits, name="ordersink")
    sink.attach(router, 1)
    fabric.add_sink(router, 0)
    src = fabric.add_source(router, 0, name="src0")
    src.send(PacketFactory().make(src=0, dst=1, now=0.0))
    sim.run(until=1000)
    assert order == list(range(8))


def test_zero_load_latency_components():
    """Zero-load latency = serialization + pipeline under wormhole overlap.

    8 flits x 4 cycles/flit = 32 cycles of serialization; wormhole
    pipelining overlaps the injection and ejection wires, so a lone packet
    arrives a small pipeline delay after its tail leaves the source — i.e.
    at least 32 cycles, well under 64.
    """
    sim, _, sources, _, delivered = build_star(buf_depth=8)
    pkt = PacketFactory().make(src=0, dst=1, now=0.0)
    sources[0].send(pkt)
    sim.run(until=500)
    assert delivered
    assert 32 <= pkt.latency <= 64


def test_deeper_buffers_do_not_lose_packets():
    sim, _, sources, _, delivered = build_star(buf_depth=8)
    factory = PacketFactory()
    for src in range(4):
        for dst in range(4):
            if src != dst:
                sources[src].send(factory.make(src=src, dst=dst, now=0.0))
    sim.run(until=20_000)
    assert len(delivered) == 12


# ----------------------------------------------------------------------
# Exact timing: the clocked star against the frozen process-driven one
# ----------------------------------------------------------------------

#: name -> (star kwargs, [(src, dst), ...] in send order).
STAR_CASES = {
    "single_packet": ({}, [(0, 2)]),
    "contention_3_to_1": ({}, [(s, 3) for s in range(3) for _ in range(5)]),
    "all_pairs_deep": (
        {"buf_depth": 8},
        [(s, d) for s in range(4) for d in range(4) if s != d],
    ),
    "one_vc_queued": ({"n_vcs": 1}, [(0, 1)] * 3),
    "one_vc_depth_one": (
        {"n_vcs": 1, "buf_depth": 1},
        [(0, 1)] * 3 + [(2, 1)] * 3,
    ),
}


def star_timeline(build, case, **extra):
    """Per delivered packet, in delivery order: (pid offset, injected_at,
    delivered_at).  Pids are offset by the first one because
    ``PacketFactory`` ids are global."""
    kwargs, traffic = STAR_CASES[case]
    sim, _, sources, _, delivered = build(**kwargs, **extra)
    factory = PacketFactory()
    pkts = [factory.make(src=s, dst=d, now=0.0) for s, d in traffic]
    for pkt in pkts:
        sources[pkt.src].send(pkt)
    # The frozen router ticks every cycle to the horizon; every case here
    # drains by cycle 500.
    sim.run(until=1_000)
    assert len(delivered) == len(pkts)
    first = pkts[0].pid
    return [(p.pid - first, p.injected_at, p.delivered_at) for p in delivered]


@pytest.mark.parametrize("case", sorted(STAR_CASES))
def test_star_matches_frozen_process_substrate(case):
    assert star_timeline(build_star, case) == star_timeline(build_frozen_star, case)


@pytest.mark.parametrize("case", sorted(STAR_CASES))
def test_reversed_ni_pump_order_is_behaviour_neutral(case):
    """Each pump owns the one channel into its own router input port, and
    every push in a tick comes due at the same time, so the order the
    fabric pumps the NIs in cannot move a timestamp (DESIGN.md §6)."""
    assert star_timeline(build_star, case, ports=[3, 2, 1, 0]) == star_timeline(
        build_star, case
    )


# ----------------------------------------------------------------------
# Worklists: the stages touch only live VCs and due pumps
# ----------------------------------------------------------------------

def scheduled_timeline(build, sends, **kwargs):
    """Run ``sends`` — (time, src, dst) kernel events — on a star until
    every packet is delivered; return per delivered packet (pid offset,
    injected_at, delivered_at)."""
    sim, _, sources, _, delivered = build(**kwargs)
    factory = PacketFactory()
    pkts = [factory.make(src=s, dst=d, now=t) for t, s, d in sends]
    for (t, s, _), pkt in zip(sends, pkts):
        sim.schedule(t, sources[s].send, pkt)
    # The frozen router ticks every cycle for ever: run in slices.
    while len(delivered) < len(pkts) and sim.now < 10_000:
        sim.run(until=sim.now + 100.0)
    assert len(delivered) == len(pkts)
    first = pkts[0].pid
    return [(p.pid - first, p.injected_at, p.delivered_at) for p in delivered]


def scan_worklists(router):
    """What a full scan of the input VCs says the worklists must hold: the
    ROUTING flat ids, the WAITING_VC flat ids per output port, the ACTIVE
    flat ids, and the non-IDLE count."""
    rc, waiting, active, busy = [], {}, [], 0
    for flat, status in enumerate(router.status):
        if status is VCStatus.ROUTING:
            rc.append(flat)
        elif status is VCStatus.WAITING_VC:
            waiting.setdefault(router.route[flat], []).append(flat)
        elif status is VCStatus.ACTIVE:
            active.append(flat)
        busy += status is not VCStatus.IDLE
    return rc, waiting, active, busy


def assert_worklists_match_scan(router):
    rc, waiting, active, busy = scan_worklists(router)
    assert sorted(router._rc_pending) == rc
    # VA and SA read these lists as they are: they must stay ascending.
    assert router._va_waiting == waiting
    assert router._active == active
    assert router.busy_vcs == busy


@st.composite
def star_traffic(draw):
    n_nodes = draw(st.integers(2, 5))
    sends = draw(st.lists(
        st.tuples(
            # Quarter cycles: sends on and off the integer router grid.
            st.integers(0, 240).map(lambda q: q / 4),
            st.integers(0, n_nodes - 1),
            st.integers(0, n_nodes - 1),
        ),
        min_size=1, max_size=12,
    ))
    star = {
        "n_nodes": n_nodes,
        "n_vcs": draw(st.sampled_from([1, 2, 4])),
        "buf_depth": draw(st.sampled_from([1, 2, 8])),
        "credit_latency": draw(st.sampled_from([1, 3])),
    }
    return star, sorted(sends, key=lambda send: send[0])


@settings(max_examples=40, deadline=None)
@given(star_traffic())
def test_worklists_equal_a_full_scan(traffic):
    """After every tick the RC list, the VA requesters and the ACTIVE
    list hold exactly the VCs a scan of the router's per-VC ``status``
    finds, and ``busy_vcs`` counts the non-IDLE VCs; per-packet timestamps
    equal the frozen process-driven star's."""
    star, sends = traffic
    tick = Fabric.tick

    def checked_tick(self, now):
        tick(self, now)
        for router in self.routers:
            assert_worklists_match_scan(router)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fabric, "tick", checked_tick)
        clocked = scheduled_timeline(build_star, sends, **star)
    assert clocked == scheduled_timeline(build_frozen_star, sends, **star)


@pytest.mark.parametrize("latency", [0, -1])
def test_zero_latency_credit_star_is_refused(latency):
    """A credit that returns in the cycle its flit leaves (or before) has
    no clocked meaning: the fabric ticks routers before pumps, so the
    frozen star and the fabric would disagree on when a pump sees it.
    The router refuses it at construction."""
    with pytest.raises(ConfigurationError, match="credit latency"):
        build_star(n_vcs=1, buf_depth=1, credit_latency=latency)


def test_two_sends_at_one_timestamp_tick_the_pump_once(monkeypatch):
    """Two sends at one time on a parked pump wake it once: the pump ticks
    at most once per time, and the timestamps match the frozen star."""
    ticks = []
    tick = SourceNI.tick

    def counted(self, now):
        ticks.append((self.name, now))
        return tick(self, now)

    monkeypatch.setattr(SourceNI, "tick", counted)
    sends = [(0.0, 0, 1), (0.0, 0, 2), (10.5, 2, 1), (10.5, 2, 3),
             (10.5, 2, 1), (200.0, 1, 3), (200.0, 1, 0)]
    clocked = scheduled_timeline(build_star, sends)
    assert len(ticks) == len(set(ticks))
    assert clocked == scheduled_timeline(build_frozen_star, sends)


class CountingList(list):
    """A list that counts how many of its entries are read."""

    def __init__(self, entries):
        super().__init__(entries)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for entry in super().__iter__():
            self.reads += 1
            yield entry


#: The router's per-input-VC state lists, indexed ``port * n_vcs + vc``.
INPUT_VC_STATE = ("bufs", "status", "route", "grant")


def input_vc_entries_read_in_one_cycle(n_ports):
    """Entries of the per-input-VC state lists read over the cycle after
    the first VC of a lone packet turns ACTIVE."""
    sim, router, sources, _, _ = build_star(n_nodes=n_ports)
    sources[0].send(PacketFactory().make(src=0, dst=1, now=0.0))
    while VCStatus.ACTIVE not in router.status:
        sim.run(until=sim.now + 1.0)
    for name in INPUT_VC_STATE:
        setattr(router, name, CountingList(getattr(router, name)))
    sim.run(until=sim.now + 1.0)
    return sum(getattr(router, name).reads for name in INPUT_VC_STATE)


def test_router_tick_reads_a_bounded_number_of_input_rows():
    """The gate against full scans: with one ACTIVE VC, a cycle reads a
    handful of input-VC entries (that VC's, in SA and ST) whether the
    router has 4 ports or 64."""
    reads = input_vc_entries_read_in_one_cycle(64)
    assert 1 <= reads <= 8
    assert reads == input_vc_entries_read_in_one_cycle(4)


def test_router_invalid_route_raises():
    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=2, routing_fn=lambda r, d: 99, n_vcs=1, buf_depth=2
    )
    fabric.add_sink(router, 1)
    src = fabric.add_source(router, 0)
    src.send(PacketFactory().make(src=0, dst=1, now=0.0))
    with pytest.raises(ConfigurationError):
        sim.run(until=100)


def test_router_validation():
    with pytest.raises(ConfigurationError):
        Fabric(Simulator()).add_router(n_ports=0, routing_fn=lambda r, d: 0)


def test_table_routing_missing_dst():
    router = Fabric(Simulator()).add_router(
        n_ports=2, routing_fn=table_routing({}), n_vcs=1
    )
    with pytest.raises(ConfigurationError):
        router.routing_fn(router, 5)


# ----------------------------------------------------------------------
# Topology helpers
# ----------------------------------------------------------------------

def test_topology_r144_paper_example():
    topo = ERapidTopology(clusters=1, boards=4, nodes_per_board=4)
    assert topo.total_nodes == 16
    assert topo.wavelengths == 4
    assert topo.board_of(5) == 1 and topo.local_of(5) == 1
    assert topo.node_id(1, 1) == 5
    assert topo.nodes_on_board(3) == [12, 13, 14, 15]
    assert topo.is_local(0, 3) and not topo.is_local(0, 4)


def test_topology_64_node_eval_config():
    """§4: 64-node network = 8 boards x 8 nodes."""
    topo = ERapidTopology(boards=8, nodes_per_board=8)
    assert topo.total_nodes == 64
    assert len(list(topo.board_pairs())) == 8 * 7


def test_topology_validation():
    with pytest.raises(TopologyError):
        ERapidTopology(clusters=2)
    with pytest.raises(TopologyError):
        ERapidTopology(boards=1)
    with pytest.raises(TopologyError):
        ERapidTopology(nodes_per_board=0)
    topo = ERapidTopology()
    with pytest.raises(TopologyError):
        topo.board_of(16)
    with pytest.raises(TopologyError):
        topo.node_id(4, 0)
    with pytest.raises(TopologyError):
        topo.node_id(0, 4)


def test_ring_arithmetic():
    ring = Ring(4)
    assert ring.next_of(3) == 0
    assert ring.prev_of(0) == 3
    assert ring.distance(1, 3) == 2
    assert ring.distance(3, 1) == 2
    assert list(ring.walk(0)) == [1, 2, 3, 0]


def test_ring_validation():
    with pytest.raises(TopologyError):
        Ring(1)
    with pytest.raises(TopologyError):
        Ring(4).next_of(4)


def test_ibi_routing_local_and_remote():
    topo = ERapidTopology(boards=4, nodes_per_board=4)
    route = ibi_routing(topo, board=1, tx_port_of=lambda d: 4 + d)
    router = Fabric(Simulator()).add_router(n_ports=8, routing_fn=route, n_vcs=1)
    # Local destination -> ejection port == local index.
    assert route(router, 5) == 1
    assert route(router, 7) == 3
    # Remote destination -> transmitter port.
    assert route(router, 0) == 4
    assert route(router, 14) == 7
