"""Property-based invariants of the detailed (flit-level) engine.

Hypothesis drives (pattern, load, static policy, seed) through short
R(1,4,4) runs and checks, at the end of each run, what must hold for
*every* configuration:

* packet conservation: every packet injected is delivered, queued (at a
  send port or a transmitter) or in flight (mid-injection, in a router
  buffer or on a wire, in optical service, or on the fiber), exactly once;
* credit conservation: on every credit loop, the sender's credits plus
  the flits on the wire and in the receiving buffer plus the credits on
  their way back equal the buffer depth, so every counter is within
  ``[0, depth]``, and no flit buffer holds more than its depth;
* latency above the serialization floor, and power bounded by every
  transmitter busy at the highest level.

The fast engine's counterpart is ``tests/test_engine_invariants.py``.
"""

from collections import Counter
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ERapidConfig
from repro.core.detailed import DetailedEngine
from repro.core.policies import make_policy
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=300, measure=700, drain_limit=600)

run_space = st.fixed_dictionaries(
    {
        "pattern": st.sampled_from(
            ["uniform", "complement", "butterfly", "perfect_shuffle", "tornado"]
        ),
        "load": st.sampled_from([0.15, 0.45, 0.85]),
        # The detailed engine runs the static wavelength allocation only.
        "policy": st.sampled_from(["NP-NB", "P-NB"]),
        "seed": st.integers(1, 50),
    }
)


def run_detailed(params):
    config = ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4),
        policy=make_policy(params["policy"]),
        seed=params["seed"],
    )
    engine = DetailedEngine(
        config,
        WorkloadSpec(pattern=params["pattern"], load=params["load"],
                     seed=params["seed"]),
        PLAN,
    )
    created = []
    on_injected = engine.collector.on_injected

    def record(pkt, now):
        created.append(pkt)
        on_injected(pkt, now)

    engine.collector.on_injected = record
    return engine, engine.run(), created


def packet_census(engine):
    """Where each undelivered packet is, by kind of place."""
    places = {}

    def put(pkt, place):
        places.setdefault(pkt.pid, place)

    pumps = list(engine.source_nis.values()) + list(engine.rx_nis.values())
    for ni in pumps:
        for pkt in ni.queue.items:
            put(pkt, "queued")
    for queue in engine.tx_queues.values():
        for pkt in queue.items:
            put(pkt, "queued")
    for ni in pumps:
        if ni.flits is not None:
            put(ni.flits[0].packet, "injecting")
    for router in engine.routers:
        for buf in router.bufs:
            for flit in buf:
                put(flit.packet, "electrical")
    for _, (_, _, flit) in engine.fabric.deliveries:
        put(flit.packet, "electrical")
    for entry in engine.sim._heap:
        if entry[4] == engine._relay:
            put(entry[5][1], "fiber")
    return places


@settings(max_examples=10, deadline=None)
@given(run_space)
def test_detailed_engine_invariants_hold_everywhere(params):
    engine, result, created = run_detailed(params)
    config = engine.config
    depth = config.router.buf_depth

    # --- packet conservation --------------------------------------------
    assert len(created) == engine.collector.injected_total
    assert len({p.pid for p in created}) == len(created)
    delivered = [p for p in created if p.delivered_at is not None]
    assert len(delivered) == sum(s.packets_received for s in engine.sink_nis.values())
    places = packet_census(engine)
    undelivered = [p for p in created if p.delivered_at is None]
    assert not {p.pid for p in delivered} & set(places)
    # A packet found nowhere is held by a transmitter, serializing it or
    # waiting out a DVS stall: at most one per such transmitter, and not
    # yet stamped with a wavelength.
    unseen = [p for p in undelivered if p.pid not in places]
    now = engine.sim.now
    holding = [lc for lc in engine.lcs.values() if lc.busy or lc.stall_until > now]
    assert len(unseen) <= len(holding)
    for pkt in unseen:
        assert pkt.wavelength is None
        assert engine.topology.board_of(pkt.src) != engine.topology.board_of(pkt.dst)
    kinds = Counter(places[p.pid] for p in undelivered if p.pid in places)
    queued = kinds["queued"]
    in_flight = kinds["injecting"] + kinds["electrical"] + kinds["fiber"] + len(unseen)
    assert len(created) == len(delivered) + queued + in_flight

    # --- credit conservation and buffer capacity ---------------------------
    fabric = engine.fabric
    in_wire = Counter(
        (id(sink), port, flit.vc) for _, (sink, port, flit) in fabric.deliveries
    )
    returning = Counter()
    for _, (restore, vc) in fabric.credits:
        if isinstance(restore, partial):  # a sink's credit to its router
            returning[(id(restore.func.__self__), restore.args[0], vc)] += 1
        else:  # a router's credit to the NI feeding its input port
            returning[(id(restore.__self__), None, vc)] += 1
    for ni in list(engine.source_nis.values()) + list(engine.rx_nis.values()):
        router = ni.channel.sink
        port = ni.channel.sink_port
        assert 0 <= ni.credits <= depth
        assert ni.credits + len(router.bufs[port * router.n_vcs]) + in_wire[
            (id(router), port, 0)
        ] + returning[(id(ni), None, 0)] == depth
    for router in engine.routers:
        assert all(len(buf) <= depth for buf in router.bufs)
        for port, channel in enumerate(router.channels):
            for vc in range(router.n_vcs):
                credits = router.credits[port * router.n_vcs + vc]
                assert 0 <= credits <= depth
                # Sinks consume a flit the cycle it lands.
                assert credits + in_wire[(id(channel.sink), port, vc)] + returning[
                    (id(router), port, vc)
                ] == depth

    # --- latency floor -------------------------------------------------------
    # 8 flits serialize over the 4-cycle injection port before the tail
    # can arrive; a remote packet also crosses the fiber.
    flit_cycles = config.router.flits_per_packet * (
        (config.router.flit_bytes * 8) // config.router.channel_bits
    )
    fiber = config.optical.fiber_latency_cycles
    topo = engine.topology
    for pkt in delivered:
        floor = flit_cycles
        if topo.board_of(pkt.src) != topo.board_of(pkt.dst):
            floor += fiber
        assert pkt.delivered_at - pkt.created_at >= floor

    # --- power bound -------------------------------------------------------
    busy_high = config.link_power.instantaneous_mw(
        True, config.power_levels.highest, True
    )
    assert 0.0 <= result.power_mw <= len(engine.lcs) * busy_high + 1e-6
    assert result.labeled_delivered <= result.labeled_injected
