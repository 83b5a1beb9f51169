"""The detailed (flit-level, cycle-accurate) E-RAPID engine.

Implements Figure 2(a) literally: each board is one
:class:`~repro.network.router.VCRouter` whose first D ports connect the
node NIs (send + receive) and whose last W ports connect the optical plane
— output side to the wavelength-λ transmitter, input side to the fixed-λ
receiver.  Flits interleave in the electrical domain under credit-based
flow control; whole packets interleave in the optical domain (§2.1), so a
packet is reassembled at the transmitter queue before serialization onto
the fiber at the optical bit rate.

This engine runs the static RWA (no DBR — wavelength re-allocation lives
in the fast engine) but fully supports **DPM**: each transmitter carries a
flit-level link controller that scales its bit rate against the policy's
thresholds every R_w, paying the DVS stall, and the per-channel power is
integrated by the same accountant the fast engine uses.  It exists to
cross-validate the fast engine's electrical-domain and power-management
abstractions at flit granularity, not to run the full sweeps.

Execution model — one clocked fabric
------------------------------------
The electrical substrate (routers, NIs, channels, credits) lives in one
:class:`~repro.network.fabric.Fabric`, whose four-phase clock loop ticks
every board's router in board order and every source-NI pump in creation
order (node injectors first, then the receiver-side re-injection NIs).
The tick runs in the kernel's priority-1 continuation class, so every
priority-0 event at time *t* (injection draws, packet hand-offs, fiber
relays, DPM window decisions) is visible to the tick at *t* — the same
visibility order the per-component processes of the frozen engine had.
The coarse parts of the model stay event-driven: injector processes,
optical serialization processes, the DPM window process, and the
run/drain phase structure.  Results are bit-identical to the frozen
process-based engine (``repro.perf.legacy_detailed``), which
``tests/test_detailed_equivalence`` enforces field-for-field on
:class:`RunResult`.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from repro.core.config import ERapidConfig
from repro.core.dpm import DpmAction, LinkWindowStats, dpm_decide
from repro.errors import ConfigurationError
from repro.metrics.collector import Collector, MeasurementPlan, RunResult
from repro.network.fabric import Fabric
from repro.network.interface import SinkNI, SourceNI
from repro.network.packet import Packet
from repro.network.router import VCRouter
from repro.network.routing import ibi_routing
from repro.optics.rwa import StaticRWA
from repro.power.energy import EnergyAccountant
from repro.power.levels import PowerLevel
from repro.sim.kernel import Simulator
from repro.sim.stats import TimeWeighted
from repro.sim.queues import MonitoredStore
from repro.traffic.injection import TrafficSource
from repro.traffic.workload import WorkloadSpec

__all__ = ["DetailedEngine", "coverage_gap"]


def coverage_gap(config: ERapidConfig, *_: object) -> Optional[str]:
    """Why a run point cannot run on the detailed engine (None = it can)."""
    policy = config.policy
    if policy.dbr:
        return (
            "the detailed engine models the static wavelength allocation and "
            f"cannot run DBR policy {policy.name!r}; use the fast engine"
        )
    if policy.dpm_smoothing != 0.0:
        return (
            "the detailed engine decides DPM on the raw window counter and "
            f"cannot run dpm_smoothing={policy.dpm_smoothing} "
            f"({policy.name!r}); use the fast engine"
        )
    return None


class _TxSink(SinkNI):
    """Transmitter-port sink: reassembles flits, queues whole packets."""

    __slots__ = ("queue",)

    def __init__(self, fabric: Fabric, queue: MonitoredStore, name: str) -> None:
        super().__init__(fabric.sim, fabric.deliveries, fabric.credits, name=name)
        self.queue = queue

    def receive_flit(self, flit, port):  # noqa: D102 - see SinkNI
        # Don't stamp delivered_at here: the packet is only crossing into
        # the optical domain.  Tail -> whole packet is reassembled.
        self.eject(flit)
        if flit.is_tail:
            self.packets_received += 1
            self.queue.put(flit.packet)


class _DetailedLC:
    """Flit-level link controller: per-transmitter DPM state."""

    __slots__ = (
        "engine", "board", "wavelength", "level", "stall_until", "busy",
        "busy_signal", "dpm_transitions",
    )

    def __init__(self, engine: "DetailedEngine", board: int, wavelength: int) -> None:
        self.engine = engine
        self.board = board
        self.wavelength = wavelength
        self.level: PowerLevel = engine.config.power_levels.highest
        self.stall_until = 0.0
        self.busy = False
        self.busy_signal = TimeWeighted(engine.sim.now, 0.0)
        self.dpm_transitions = 0
        self._push_power()

    @property
    def key(self):
        return (self.board, self.wavelength)

    def _push_power(self) -> None:
        mw = self.engine.config.link_power.instantaneous_mw(
            True, self.level, self.busy
        )
        self.engine.accountant.set_channel_power(
            self.key, self.engine.sim.now, mw
        )

    def set_busy(self, busy: bool) -> None:
        if busy == self.busy:
            return
        self.busy = busy
        self.busy_signal.update(self.engine.sim.now, 1.0 if busy else 0.0)
        self._push_power()

    def window_decide(self, queue: MonitoredStore) -> None:
        """End-of-window DPM decision (the §3.1 rule at flit granularity)."""
        now = self.engine.sim.now
        cfg = self.engine.config
        stats = LinkWindowStats(
            link_util=min(1.0, self.busy_signal.window(now)),
            buffer_util=min(1.0, queue.buffer_util(now)),
            queue_empty=len(queue) == 0,
        )
        self.busy_signal.reset_window(now)
        queue.reset_window(now)
        table = cfg.power_levels
        action = dpm_decide(
            stats,
            cfg.policy.thresholds,
            at_lowest=self.level is table.lowest,
            at_highest=self.level is table.highest,
        )
        if action in (DpmAction.SLEEP, DpmAction.HOLD):
            # Sleep is a power-only state; the detailed engine keeps the
            # laser formally on at the current level (its contribution to
            # idle power is what the fast engine cross-checks).
            return
        target = table.up(self.level) if action is DpmAction.UP else table.down(self.level)
        if target is self.level:
            return
        stall = cfg.transitions.stall_cycles(table, self.level, target)
        self.level = target
        self.stall_until = max(self.stall_until, now + stall)
        self.dpm_transitions += 1
        self._push_power()


class DetailedEngine:
    """Flit-level simulation of one E-RAPID run (static RWA, DPM optional)."""

    def __init__(
        self,
        config: ERapidConfig,
        workload: WorkloadSpec,
        plan: MeasurementPlan = MeasurementPlan(),
    ) -> None:
        if (gap := coverage_gap(config)) is not None:
            raise ConfigurationError(gap)
        # A run's object graph (kernel processes, fabric callbacks) is
        # cyclic and outlives the run until a full collection; collect
        # earlier runs' graphs first, so back-to-back runs in one process
        # hold one graph at a time.
        gc.collect()
        self.config = config
        self.topology = config.topology
        self.workload = workload
        self.plan = plan
        self.sim = Simulator()
        self.collector = Collector(plan, self.topology.total_nodes)
        self.accountant = EnergyAccountant(cycle_ns=1.0 / config.router.clock_ghz)
        self.rwa = StaticRWA(self.topology.boards)
        #: (board, wavelength) -> flit-level link controller (remote tx only).
        self.lcs: Dict[tuple, _DetailedLC] = {}

        #: The clocked electrical substrate: routers, NIs, one clock loop.
        self.fabric = fabric = Fabric(self.sim)
        #: One router per board, in board order (the fabric's own list).
        self.routers: List[VCRouter] = fabric.routers

        topo = self.topology
        D, W, B = topo.nodes_per_board, topo.wavelengths, topo.boards
        r = config.router

        self.source_nis: Dict[int, SourceNI] = {}
        self.sink_nis: Dict[int, SinkNI] = {}
        #: (board, wavelength) -> transmitter packet queue.
        self.tx_queues: Dict[tuple, MonitoredStore] = {}
        #: (board, wavelength) -> receiver-side re-injection NI.
        self.rx_nis: Dict[tuple, SourceNI] = {}

        flit_cycles = (r.flit_bytes * 8) // r.channel_bits

        # Build one router per board with D node ports + W optical ports.
        for b in range(B):
            def tx_port_of(dest_board: int, _b: int = b) -> int:
                return D + self.rwa.wavelength_for(_b, dest_board)

            fabric.add_router(
                n_ports=D + W,
                routing_fn=ibi_routing(topo, b, tx_port_of),
                n_vcs=r.n_vcs,
                buf_depth=r.buf_depth,
                credit_latency=r.credit_cycles,
                name=f"ibi{b}",
            )

        for b in range(B):
            router = self.routers[b]
            for local in range(D):
                node = topo.node_id(b, local)
                self.sink_nis[node] = fabric.add_sink(
                    router, local, on_packet=self._on_delivered,
                    cycles_per_flit=flit_cycles, name=f"eject{node}",
                )
                self.source_nis[node] = fabric.add_source(
                    router, local, cycles_per_flit=flit_cycles,
                    name=f"inject{node}",
                )
            for w in range(W):
                port = D + w
                q = MonitoredStore(
                    self.sim, capacity=config.tx_queue_capacity, name=f"b{b}.λ{w}.txq"
                )
                self.tx_queues[(b, w)] = q
                _TxSink(fabric, q, name=f"b{b}.λ{w}.tx").attach(
                    router, port, latency=1, cycles_per_flit=flit_cycles
                )
                dest_board = self.rwa.dest_served_by(b, w)
                if dest_board != b:
                    self.lcs[(b, w)] = _DetailedLC(self, b, w)
                    self.rx_nis[(b, w)] = fabric.add_source(
                        self.routers[dest_board], D + w,
                        cycles_per_flit=flit_cycles,
                        name=f"b{dest_board}.λ{w}.rx",
                    )

        from repro.traffic.capacity import CapacityParams

        params = CapacityParams(
            packet_bits=r.packet_bytes * 8,
            optical_gbps=config.power_levels.highest.bit_rate_gbps,
            electrical_gbps=r.port_gbps,
            clock_ghz=r.clock_ghz,
        )
        self.sources: List[TrafficSource] = workload.build_sources(topo, params)
        self._started = False

    # ------------------------------------------------------------------
    def _on_delivered(self, pkt: Packet) -> None:
        self.collector.on_delivered(pkt, self.sim.now)

    # ------------------------------------------------------------------
    def start(self, node_order=None, optical_order=None) -> None:
        """Register all processes; orders only permute FIFO tie-breaking.

        ``node_order`` / ``optical_order`` are permutations of the node ids
        and remote ``(board, wavelength)`` keys used by the determinism
        auditor: registration order changes the FIFO sequence numbers of
        same-time start-up events, so a run that is a pure function of the
        kernel's ``(time, priority, FIFO)`` total order must not change.
        """
        if self._started:
            raise ConfigurationError("engine already started")
        self._started = True
        nodes = list(range(self.topology.total_nodes))
        if node_order is not None:
            if sorted(node_order) != nodes:
                raise ConfigurationError(
                    "node_order must be a permutation of all node ids"
                )
            nodes = list(node_order)
        for node in nodes:
            self.sim.process(
                self._injector_proc(node, self.sources[node]), name=f"dinj{node}"
            )
        remote = [
            key for key in self.tx_queues if self.rwa.dest_served_by(*key) != key[0]
        ]
        if optical_order is not None:
            if sorted(optical_order) != sorted(remote):
                raise ConfigurationError(
                    "optical_order must be a permutation of the remote "
                    "(board, wavelength) keys"
                )
            remote = list(optical_order)
        for b, w in remote:
            dest = self.rwa.dest_served_by(b, w)
            self.sim.process(
                self._optical_proc(b, w, dest, self.tx_queues[(b, w)]),
                name=f"opt{b}.{w}",
            )
        if self.config.policy.dpm:
            self.sim.process(self._dpm_window_proc(), name="detailed-dpm")

    def _dpm_window_proc(self):
        """Lock-step power windows: every LC decides at each R_w boundary."""
        sim = self.sim
        window = self.config.control.window_cycles
        latency = self.config.control.power_cycle_latency(
            self.topology.nodes_per_board
        )
        while True:
            yield sim.timeout(window)
            for (b, w), lc in self.lcs.items():
                sim.schedule(latency, lc.window_decide, self.tx_queues[(b, w)])

    def _injector_proc(self, node: int, source: TrafficSource):
        sim = self.sim
        hard_end = self.plan.hard_end
        ni = self.source_nis[node]
        while True:
            yield sim.timeout(source.next_gap())
            now = sim.now
            if now >= hard_end:
                return
            pkt = source.next_packet(now, labeled=self.collector.labeling(now))
            self.collector.on_injected(pkt, now)
            yield ni.send(pkt)

    def _optical_proc(self, board: int, wavelength: int, dest: int, queue):
        """One transmitter laser serving its static destination at the
        link controller's current power level."""
        sim = self.sim
        cfg = self.config
        fiber = cfg.optical.fiber_latency_cycles
        rx_ni = self.rx_nis[(board, wavelength)]
        lc = self.lcs[(board, wavelength)]
        while True:
            pkt: Packet = yield queue.get()
            if sim.now < lc.stall_until:  # DVS transition in progress
                yield sim.timeout(lc.stall_until - sim.now)
            lc.set_busy(True)
            yield sim.timeout(
                cfg.optical.packet_service_cycles(
                    pkt.size_bytes, lc.level.bit_rate_gbps
                )
            )
            lc.set_busy(False)
            pkt.wavelength = wavelength
            sim.schedule(fiber, self._relay, rx_ni, pkt)

    @staticmethod
    def _relay(rx_ni: SourceNI, pkt: Packet) -> None:
        rx_ni.send(pkt)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        if not self._started:
            self.start()
        plan = self.plan
        self.sim.run(until=plan.warmup)
        self.accountant.reset_window(self.sim.now)
        self.sim.run(until=plan.measure_end)
        self.collector.power_avg_mw = self.accountant.window_average_mw(self.sim.now)
        t = plan.measure_end
        while not self.collector.drained() and t < plan.hard_end:
            t = min(t + 2000.0, plan.hard_end)
            self.sim.run(until=t)
        return self.collector.result(
            engine="detailed",
            pattern=self.workload.pattern,
            load=self.workload.load,
            events=self.sim.event_count,
            dpm_transitions=sum(
                self.lcs[key].dpm_transitions for key in sorted(self.lcs)
            ),
        )
