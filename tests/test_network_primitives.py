"""Unit + property tests for packets, buffers, credits, arbiters, channels."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.network import (
    Channel,
    CreditCounter,
    Fabric,
    FlitBuffer,
    FlitType,
    MatrixArbiter,
    Packet,
    PacketFactory,
    RoundRobinArbiter,
    SeparableAllocator,
)
from repro.sim import DueQueue, Simulator


# ----------------------------------------------------------------------
# Packets / flits
# ----------------------------------------------------------------------

def test_packet_factory_table1_defaults():
    """Table 1: 64-byte packets are 8 flits."""
    factory = PacketFactory()
    pkt = factory.make(src=0, dst=5, now=100.0)
    assert pkt.size_flits == 8
    assert pkt.size_bytes == 64
    assert pkt.size_bits == 512
    assert pkt.created_at == 100.0


def test_packet_flit_expansion_head_body_tail():
    pkt = PacketFactory().make(0, 1, 0.0)
    flits = pkt.flits()
    assert len(flits) == 8
    assert flits[0].ftype is FlitType.HEAD and flits[0].is_head
    assert all(f.ftype is FlitType.BODY for f in flits[1:-1])
    assert flits[-1].ftype is FlitType.TAIL and flits[-1].is_tail
    assert [f.index for f in flits] == list(range(8))
    assert all(f.src == 0 and f.dst == 1 for f in flits)


def test_single_flit_packet_is_head_tail():
    pkt = Packet(src=0, dst=1, size_flits=1)
    (flit,) = pkt.flits()
    assert flit.ftype is FlitType.HEAD_TAIL
    assert flit.is_head and flit.is_tail


def test_packet_latency_requires_delivery():
    pkt = Packet(src=0, dst=1, created_at=10.0)
    with pytest.raises(ConfigurationError):
        _ = pkt.latency
    pkt.delivered_at = 60.0
    assert pkt.latency == 50.0


def test_packet_ids_unique():
    a, b = Packet(0, 1), Packet(0, 1)
    assert a.pid != b.pid


def test_packet_factory_validation():
    with pytest.raises(ConfigurationError):
        PacketFactory(size_bytes=0)
    with pytest.raises(ConfigurationError):
        PacketFactory(size_bytes=60, flit_bytes=8)


def test_labeled_flag_propagates():
    pkt = PacketFactory().make(0, 1, 0.0, labeled=True)
    assert pkt.labeled


# ----------------------------------------------------------------------
# FlitBuffer
# ----------------------------------------------------------------------

def test_flit_buffer_fifo_and_overflow():
    buf = FlitBuffer(capacity=2)
    pkt = Packet(0, 1, size_flits=3)
    f0, f1, f2 = pkt.flits()
    buf.push(f0)
    buf.push(f1)
    assert buf.is_full
    with pytest.raises(SimulationError):
        buf.push(f2)
    assert buf.front() is f0
    assert buf.pop() is f0
    assert buf.pop() is f1
    assert buf.is_empty
    with pytest.raises(SimulationError):
        buf.pop()


def test_flit_buffer_bad_capacity():
    with pytest.raises(SimulationError):
        FlitBuffer(capacity=0)


# ----------------------------------------------------------------------
# Credits
# ----------------------------------------------------------------------

def test_credit_counter_lifecycle():
    c = CreditCounter(2)
    assert c.has_credit and c.credits == 2
    c.consume()
    c.consume()
    assert not c.has_credit
    with pytest.raises(SimulationError):
        c.consume()
    c.restore()
    assert c.credits == 1
    c.restore()
    with pytest.raises(SimulationError):
        c.restore()


def test_credit_counter_negative_initial():
    with pytest.raises(SimulationError):
        CreditCounter(-1)


# ----------------------------------------------------------------------
# Arbiters
# ----------------------------------------------------------------------

def test_round_robin_rotates():
    arb = RoundRobinArbiter(3)
    all_on = [True, True, True]
    grants = [arb.arbitrate(all_on) for _ in range(6)]
    assert grants == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_idle():
    arb = RoundRobinArbiter(3)
    assert arb.arbitrate([False, False, True]) == 2
    assert arb.arbitrate([True, False, False]) == 0
    assert arb.arbitrate([False, False, False]) is None


def test_round_robin_wrong_width_raises():
    with pytest.raises(ConfigurationError):
        RoundRobinArbiter(3).arbitrate([True])


@given(st.integers(2, 8), st.integers(1, 50))
def test_round_robin_starvation_freedom(n, rounds):
    """Property: under full load every requester is granted within n rounds."""
    arb = RoundRobinArbiter(n)
    grants = [arb.arbitrate([True] * n) for _ in range(rounds * n)]
    for req in range(n):
        positions = [i for i, g in enumerate(grants) if g == req]
        assert positions, "every requester granted at least once"
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert all(g == n for g in gaps)


def test_matrix_arbiter_least_recently_served():
    arb = MatrixArbiter(3)
    assert arb.arbitrate([True, True, True]) == 0
    # 0 just won, so 1 then 2 now beat it.
    assert arb.arbitrate([True, True, True]) == 1
    assert arb.arbitrate([True, True, True]) == 2
    assert arb.arbitrate([True, True, True]) == 0


def test_matrix_arbiter_idle_and_width():
    arb = MatrixArbiter(2)
    assert arb.arbitrate([False, False]) is None
    with pytest.raises(ConfigurationError):
        arb.arbitrate([True])


@given(st.integers(1, 6), st.lists(st.booleans(), min_size=1, max_size=6))
def test_matrix_arbiter_grants_only_requesters(n, reqs):
    arb = MatrixArbiter(n)
    reqs = (reqs * n)[:n]
    winner = arb.arbitrate(reqs)
    if winner is None:
        assert not any(reqs)
    else:
        assert reqs[winner]


def test_separable_allocator_is_matching():
    alloc = SeparableAllocator(3, 3)
    grants = alloc.allocate({0: [0, 1], 1: [0], 2: [0, 2]})
    ins = [i for i, _ in grants]
    outs = [o for _, o in grants]
    assert len(set(ins)) == len(ins)
    assert len(set(outs)) == len(outs)
    assert grants  # at least one grant under load


@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.dictionaries(st.integers(0, 4), st.lists(st.integers(0, 4), max_size=5)),
)
def test_separable_allocator_property_matching(n_in, n_out, raw):
    alloc = SeparableAllocator(n_in, n_out)
    requests = {
        i: [o for o in outs if o < n_out] for i, outs in raw.items() if i < n_in
    }
    grants = alloc.allocate(requests)
    ins = [i for i, _ in grants]
    outs = [o for _, o in grants]
    assert len(set(ins)) == len(ins)
    assert len(set(outs)) == len(outs)
    for i, o in grants:
        assert o in requests[i]


def test_separable_allocator_validation():
    with pytest.raises(ConfigurationError):
        SeparableAllocator(0, 1)
    alloc = SeparableAllocator(2, 2)
    with pytest.raises(ConfigurationError):
        alloc.allocate({5: [0]})
    with pytest.raises(ConfigurationError):
        alloc.allocate({0: [7]})


# ----------------------------------------------------------------------
# Channel
# ----------------------------------------------------------------------

class _Collector:
    def __init__(self):
        self.got = []

    def receive_flit(self, flit, port):
        self.got.append((flit, port))


def test_channel_delivers_after_serialization_plus_latency():
    sim = Simulator()
    fabric = Fabric(sim)
    sink = _Collector()
    ch = Channel(
        sim, fabric.deliveries, sink=sink, sink_port=3, latency=2, cycles_per_flit=4
    )
    pkt = Packet(0, 1, size_flits=1)
    (flit,) = pkt.flits()
    ch.send(flit)
    assert ch.busy
    fabric.driver.arm(sim.now)
    sim.run()
    assert sim.now == 6.0  # 4 serialization + 2 wire
    assert sink.got == [(flit, 3)]


def test_channel_rejects_concurrent_send():
    sim = Simulator()
    ch = Channel(sim, DueQueue(), sink=_Collector(), cycles_per_flit=4)
    pkt = Packet(0, 1, size_flits=2)
    f0, f1 = pkt.flits()
    ch.send(f0)
    with pytest.raises(SimulationError):
        ch.send(f1)


def test_channel_free_after_serialization():
    sim = Simulator()
    ch = Channel(sim, DueQueue(), sink=_Collector(), latency=0, cycles_per_flit=2)
    pkt = Packet(0, 1, size_flits=2)
    f0, f1 = pkt.flits()

    def scenario():
        ch.send(f0)
        yield sim.timeout(2)
        assert not ch.busy
        ch.send(f1)

    sim.process(scenario())
    sim.run()
    assert ch.flits_sent == 2


def test_channel_without_sink_raises():
    sim = Simulator()
    ch = Channel(sim, DueQueue())
    with pytest.raises(SimulationError):
        ch.send(Packet(0, 1, size_flits=1).flits()[0])


def test_channel_validation():
    with pytest.raises(SimulationError):
        Channel(Simulator(), DueQueue(), latency=-1)
    with pytest.raises(SimulationError):
        Channel(Simulator(), DueQueue(), cycles_per_flit=0)
