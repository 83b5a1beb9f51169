"""Edge-case tests for the network interfaces (SourceNI/SinkNI) and the
detailed engine's optical boundary."""

import pytest

from repro.network import Fabric, PacketFactory, table_routing
from repro.sim import Simulator


def build_pair(n_vcs=2, buf_depth=2, queue_capacity=None):
    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=2, routing_fn=table_routing({0: 0, 1: 1}),
        n_vcs=n_vcs, buf_depth=buf_depth,
    )
    delivered = []
    sink = fabric.add_sink(router, 1, on_packet=delivered.append)
    fabric.add_sink(router, 0)
    src = fabric.add_source(router, 0, queue_capacity=queue_capacity)
    return sim, router, src, sink, delivered


def test_source_ni_single_vc_serializes_packets():
    sim, router, src, sink, delivered = build_pair(n_vcs=1)
    factory = PacketFactory()
    pkts = [factory.make(0, 1, 0.0) for _ in range(3)]
    for p in pkts:
        src.send(p)
    sim.run(until=5000)
    assert len(delivered) == 3
    assert src.packets_injected == 3
    # Single VC: strictly ordered delivery.
    assert [p.pid for p in delivered] == [p.pid for p in pkts]


def test_source_ni_two_vcs_interleave():
    sim, router, src, sink, delivered = build_pair(n_vcs=2)
    factory = PacketFactory()
    for _ in range(4):
        src.send(factory.make(0, 1, 0.0))
    sim.run(until=5000)
    assert len(delivered) == 4


def test_source_ni_bounded_queue_applies_backpressure():
    sim, router, src, sink, delivered = build_pair(queue_capacity=2)
    factory = PacketFactory()
    blocked = []

    def producer():
        for i in range(6):
            req = src.send(factory.make(0, 1, sim.now))
            blocked.append(not req.triggered)
            yield req

    sim.process(producer())
    sim.run(until=10_000)
    assert len(delivered) == 6
    # At least one send had to wait for queue space.
    assert any(blocked)


def test_sink_ni_counts_flits_and_packets():
    sim, router, src, sink, delivered = build_pair()
    src.send(PacketFactory().make(0, 1, 0.0))
    sim.run(until=2000)
    assert sink.packets_received == 1
    assert sink.flits_received == 8


def _tx_sink(fabric, router, port):
    from repro.core.detailed import _TxSink
    from repro.sim.queues import MonitoredStore

    sink = _TxSink(fabric, MonitoredStore(fabric.sim, name="txq"), name="tx")
    sink.attach(router, port)
    return sink


@pytest.mark.parametrize("kind", ["eject", "transmitter"])
def test_sink_rejects_a_flit_without_a_vc(kind):
    """Both sinks eject through ``SinkNI.eject``: a flit with no VC has no
    credit to return and raises at once, before any credit is queued."""
    from repro.errors import ConfigurationError

    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=2, routing_fn=table_routing({0: 0, 1: 1}), n_vcs=2, buf_depth=2
    )
    if kind == "eject":
        sink = fabric.add_sink(router, 1)
    else:
        sink = _tx_sink(fabric, router, 1)
    flit = PacketFactory().make(0, 1, 0.0).flits()[0]
    assert flit.vc is None
    with pytest.raises(ConfigurationError, match="without a VC"):
        sink.receive_flit(flit, 1)
    assert len(fabric.credits) == 0


@pytest.mark.parametrize("kind", ["eject", "transmitter"])
def test_sink_ejection_counts_and_returns_the_credit(kind):
    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=2, routing_fn=table_routing({0: 0, 1: 1}), n_vcs=2, buf_depth=2
    )
    if kind == "eject":
        sink = fabric.add_sink(router, 1)
    else:
        sink = _tx_sink(fabric, router, 1)
    flits = PacketFactory().make(0, 1, 0.0).flits()
    for flit in flits:
        flit.vc = 1
        sink.receive_flit(flit, 1)
    assert sink.flits_received == len(flits)
    assert sink.packets_received == 1
    assert len(fabric.credits) == len(flits)
    assert fabric.credits[0][0] == 1.0
    if kind == "transmitter":
        assert list(sink.queue.items) == [flits[0].packet]


@pytest.mark.parametrize("wake", [28.25, 30.0, 30.5, 31.25, 33.0])
def test_a_credit_returned_to_a_parked_pump_does_not_delay_its_wake(wake):
    """With a fast ejection wire the router returns the credits of a
    packet's last flits while the pump's own wire is still busy with the
    tail (the pump parked at 28, its wire is busy until 32).  A packet
    sent then must still be taken, and stamped, the cycle it is sent."""
    sim = Simulator()
    fabric = Fabric(sim)
    router = fabric.add_router(
        n_ports=2, routing_fn=table_routing({0: 0, 1: 1}), n_vcs=1, buf_depth=2
    )
    fabric.add_sink(router, 1, cycles_per_flit=1)
    fabric.add_sink(router, 0, cycles_per_flit=1)
    src = fabric.add_source(router, 0)
    factory = PacketFactory()
    first, second = factory.make(0, 1, 0.0), factory.make(0, 1, wake)
    src.send(first)
    sim.schedule(wake, src.send, second)
    sim.run(until=300)
    assert second.delivered_at is not None
    assert second.injected_at == wake


def test_injection_timestamp_set():
    sim, router, src, sink, delivered = build_pair()
    pkt = PacketFactory().make(0, 1, 0.0)
    src.send(pkt)
    sim.run(until=2000)
    assert pkt.injected_at is not None
    assert pkt.delivered_at > pkt.injected_at >= 0.0


# ----------------------------------------------------------------------
# Detailed engine optical boundary
# ----------------------------------------------------------------------

def test_detailed_tx_sink_reassembles_whole_packets():
    """The optical boundary is store-and-forward: the transmitter queue
    holds whole packets, never partial flit runs."""
    from repro.core.config import ERapidConfig
    from repro.core.detailed import DetailedEngine
    from repro.metrics.collector import MeasurementPlan
    from repro.network.topology import ERapidTopology
    from repro.traffic import WorkloadSpec

    cfg = ERapidConfig(topology=ERapidTopology(boards=4, nodes_per_board=4))
    # Load 0.2 N_c is below complement's static saturation (~0.27 N_c on
    # R(1,4,4)), so the run must fully drain.
    engine = DetailedEngine(
        cfg,
        WorkloadSpec(pattern="complement", load=0.2, seed=2),
        MeasurementPlan(warmup=1000, measure=4000, drain_limit=6000),
    )
    result = engine.run()
    assert result.labeled_delivered == result.labeled_injected > 0
    for (b, w), sink_q in engine.tx_queues.items():
        dest = engine.rwa.dest_served_by(b, w)
        if dest == b:
            continue
        # The run stops as soon as the labeled packets drain, so a few
        # in-flight unlabeled packets may legitimately sit at the optical
        # boundary — but only *whole* packets, and far from capacity
        # (below saturation nothing accumulates).
        assert len(sink_q) <= 4
        for pkt in sink_q.items:
            assert pkt.size_flits == cfg.router.flits_per_packet


def test_detailed_engine_wavelength_stamping():
    from repro.core.config import ERapidConfig
    from repro.core.detailed import DetailedEngine
    from repro.metrics.collector import MeasurementPlan
    from repro.network.topology import ERapidTopology
    from repro.traffic import WorkloadSpec

    cfg = ERapidConfig(topology=ERapidTopology(boards=4, nodes_per_board=4))
    engine = DetailedEngine(
        cfg,
        WorkloadSpec(pattern="complement", load=0.2, seed=2),
        MeasurementPlan(warmup=500, measure=2000, drain_limit=4000),
    )
    stamped = []
    engine.collector.on_delivered = engine.collector.on_delivered  # no-op ref
    original = engine._on_delivered

    def spy(pkt):
        stamped.append(pkt.wavelength)
        original(pkt)

    engine._on_delivered = spy
    # Rebind sinks' callback (they captured the bound method).
    for sink in engine.sink_nis.values():
        sink.on_packet = spy
    engine.run()
    remote = [w for w in stamped if w is not None]
    assert remote, "remote packets must be stamped with their wavelength"
    rwa = engine.rwa
    # Complement on R(1,4,4): board 0 -> 3 uses λ (0-3) mod 4 = 1.
    assert set(remote) <= {1, 2, 3}
