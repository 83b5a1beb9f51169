"""The fast (event-driven, packet-granular) E-RAPID engine.

This engine runs the full evaluation sweeps.  Structure per packet:

1. **Injection** — Bernoulli gaps sampled directly (O(1)/packet); the
   packet enters the node's send queue.
2. **Send port** — serializes at the Table-1 electrical rate (32 cycles
   per 64 B packet) plus the 4-cycle router pipeline.  Local packets go
   straight to the destination node's receive queue; remote packets enter
   the board's per-destination transmitter queue (backpressure when full —
   the LC's bounded buffer).
3. **Optical channel** — every (wavelength, dest) channel owned by the
   source board drains the transmitter queue; service time is the packet
   serialization at the channel's *current power level*, plus fiber and
   destination-IBI pipeline latency.  DVS stalls, DPM sleep/wake penalties
   and DBR ownership changes all act at packet boundaries.
4. **Receive port** — 32-cycle ejection serialization, then delivery.

The Lock-Step coordinator, RCs and LCs mutate channel state on window
boundaries; the power accountant integrates every channel's instantaneous
draw.  Flit-level behaviour is validated against
:mod:`repro.core.detailed` on small configurations.

Callback state machines
-----------------------
The per-packet pipeline runs as flat continuation-passing callbacks, not
generator coroutines: each hold schedules its continuation directly via
:meth:`~repro.sim.kernel.Simulator.schedule_late` (the priority-1
continuation class, which reproduces the coroutine formulation's event
total order — see the kernel docs), and the send port's serialization +
pipeline timeouts are fused into a single event.  A waitable is never
allocated on the hot path; blocking is modelled by flags
(``OpticalChannel.parked``, ``_Node.send_busy``/``recv_busy``) plus an
engine-side registry of backpressured senders, and
``SuperHighway.owned_wavelengths`` makes ``_poke_pair`` /
``channels_owned_by`` owner-index hits instead of channel scans.
Since nothing ever blocks inside a node port, the node send/receive
ports are plain FIFOs (:class:`_Node`), not the statistics-keeping
:class:`~repro.sim.queues.MonitoredStore` the coroutine oracle blocks
on, and a packet's destination reaches its node and board through flat
per-node lists.  The transmitter queues are engine-owned FIFOs too
(:class:`_TxQueue`): they keep the two statistics anything reads — the
windowed occupancy integral behind the link controllers' ``Buffer_util``
and the per-packet dwell — updated inline, in the floating-point order
of the :class:`~repro.sim.queues.MonitoredStore` the oracle keeps.

The pre-rewrite coroutine engine is frozen in
:mod:`repro.perf.legacy_engine` as the oracle of
``tests/test_engine_equivalence.py``; every
:class:`~repro.metrics.collector.RunResult` metric except the executed
``events`` count is bit-identical between the two.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.board import BoardModel
from repro.core.config import ERapidConfig
from repro.core.link_controller import OpticalChannel
from repro.core.lockstep import LockStepCoordinator
from repro.core.reconfig_controller import ReconfigController
from repro.errors import ConfigurationError
from repro.metrics.collector import Collector, MeasurementPlan, RunResult
from repro.network.packet import Packet
from repro.optics.srs import SuperHighway
from repro.power.energy import EnergyAccountant
from repro.sim.kernel import Simulator
from repro.sim.stats import Tally
from repro.sim.trace import TraceLog
from repro.traffic.injection import TrafficSource
from repro.traffic.workload import WorkloadSpec

__all__ = ["FastEngine"]


class _Node:
    """One compute node's ports, as the callback machines drive them.

    A port is a FIFO plus a busy flag: a packet that finds the port busy
    waits in the FIFO, and the port's completion event pops the next.
    Nothing reads occupancy or dwell statistics of these queues, so they
    are plain deques (the coroutine oracle keeps its blocking
    :class:`~repro.core.node.NodeModel` stores).
    """

    __slots__ = (
        "node_id",
        "board",
        "send_queue",
        "recv_queue",
        "injected",
        "delivered",
        "send_busy",
        "recv_busy",
    )

    def __init__(self, node_id: int, board: int) -> None:
        self.node_id = node_id
        self.board = board
        self.send_queue: Deque[Packet] = deque()
        self.recv_queue: Deque[Packet] = deque()
        self.injected = 0
        self.delivered = 0
        self.send_busy = False
        self.recv_busy = False


class _TxQueue:
    """One board's bounded transmitter queue toward one destination board.

    The LC-monitored buffer DBR's channels drain.  It keeps what the
    :class:`~repro.sim.queues.MonitoredStore` of the coroutine oracle
    keeps and something reads: the occupancy integral of the current
    R_w window (``Buffer_util``) and each packet's dwell.  Both are
    updated inline, with the store's arithmetic in the store's order:
    the integral grows by the pre-change item count times the time since
    the last change, and a dwell sample is the pop time minus the
    enqueue time.  Samples are kept and folded into a
    :class:`~repro.sim.stats.Tally` on demand (:attr:`dwell`), which adds
    them one by one in arrival order, as the store's tally did.
    """

    __slots__ = (
        "sim", "capacity", "items", "_enq", "_t_last", "_win_area",
        "_win_start", "_dwell",
    )

    def __init__(self, sim: Simulator, capacity: int) -> None:
        now = sim.now
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Packet] = deque()
        #: Enqueue time of each buffered packet, parallel to ``items``.
        self._enq: Deque[float] = deque()
        self._t_last = now
        self._win_area = 0.0
        self._win_start = now
        self._dwell = array("d")

    def __len__(self) -> int:
        return len(self.items)

    def push(self, pkt: Packet, now: float) -> None:
        """Buffer ``pkt`` at ``now``; the caller has checked for room."""
        items = self.items
        self._win_area += len(items) * (now - self._t_last)
        self._t_last = now
        items.append(pkt)
        self._enq.append(now)

    def pop(self, now: float) -> Packet:
        """The oldest packet, taken off at ``now``; the queue is non-empty."""
        items = self.items
        self._win_area += len(items) * (now - self._t_last)
        self._t_last = now
        self._dwell.append(now - self._enq.popleft())
        return items.popleft()

    def try_put(self, pkt: Packet) -> bool:
        """Buffer ``pkt`` now if there is room."""
        if len(self.items) >= self.capacity:
            return False
        self.push(pkt, self.sim.now)
        return True

    def buffer_util(self, now: Optional[float] = None) -> float:
        """Mean occupancy over the current window, over the capacity."""
        now = self.sim.now if now is None else now
        span = now - self._win_start
        if span <= 0:
            occ = float(len(self.items))
        else:
            occ = (self._win_area + len(self.items) * (now - self._t_last)) / span
        return min(1.0, occ / self.capacity)

    def reset_window(self, now: Optional[float] = None) -> None:
        """Start a new R_w window."""
        now = self.sim.now if now is None else now
        self._t_last = now
        self._win_area = 0.0
        self._win_start = now

    @property
    def dwell(self) -> Tally:
        """Dwell statistics of every packet popped so far."""
        tally = Tally()
        for sample in self._dwell:
            tally.add(sample)
        return tally


class FastEngine:
    """Event-driven simulation of one E-RAPID run."""

    def __init__(
        self,
        config: ERapidConfig,
        workload: WorkloadSpec,
        plan: MeasurementPlan = MeasurementPlan(),
        trace: Optional[TraceLog] = None,
        sources: Optional[List[TrafficSource]] = None,
    ) -> None:
        self.config = config
        self.topology = config.topology
        self.workload = workload
        self.plan = plan
        self.trace = trace
        self.sim = Simulator(trace=trace)
        self.srs = SuperHighway(self.topology)
        self.accountant = EnergyAccountant(cycle_ns=1.0 / config.router.clock_ghz)
        self.collector = Collector(plan, self.topology.total_nodes)

        topo = self.topology
        #: Node id -> its ports and its board: the per-packet lookups.
        self._node_of: List[_Node] = [
            _Node(n, topo.board_of(n)) for n in range(topo.total_nodes)
        ]
        self._board_of: List[int] = [m.board for m in self._node_of]
        #: [source board][dest board] -> transmitter queue (None on the
        #: diagonal).
        self._txq: List[List[Optional[_TxQueue]]] = [
            [
                None if d == b else _TxQueue(self.sim, config.tx_queue_capacity)
                for d in range(topo.boards)
            ]
            for b in range(topo.boards)
        ]
        self.boards: List[BoardModel] = [
            BoardModel(
                self.sim, b, topo, config.tx_queue_capacity,
                nodes=[self._node_of[n] for n in topo.nodes_on_board(b)],
                tx_queues={
                    d: q for d, q in enumerate(self._txq[b]) if q is not None
                },
            )
            for b in range(topo.boards)
        ]
        #: (wavelength, dest) -> channel state; one per receiver slot.
        self.channels: Dict[Tuple[int, int], OpticalChannel] = {}
        self._channels_by_dest: Dict[int, List[OpticalChannel]] = {
            d: [] for d in range(self.topology.boards)
        }
        for d in range(self.topology.boards):
            for w in range(self.topology.wavelengths):
                ch = OpticalChannel(self, w, d)
                self.channels[(w, d)] = ch
                self._channels_by_dest[d].append(ch)

        self.rcs: List[ReconfigController] = [
            ReconfigController(self, b) for b in range(self.topology.boards)
        ]
        self.lockstep = LockStepCoordinator(self)

        from repro.traffic.capacity import CapacityParams

        params = CapacityParams(
            packet_bits=config.router.packet_bytes * 8,
            optical_gbps=config.power_levels.highest.bit_rate_gbps,
            electrical_gbps=config.router.port_gbps,
            clock_ghz=config.router.clock_ghz,
        )
        if sources is not None:
            if len(sources) != self.topology.total_nodes:
                raise ConfigurationError(
                    f"need {self.topology.total_nodes} sources, got {len(sources)}"
                )
            self.sources = list(sources)
        else:
            self.sources = workload.build_sources(self.topology, params)
        self._started = False

        # Hot-path constants and the backpressure registry: send ports
        # blocked on a full transmitter queue park here (FIFO per pair)
        # until a channel pops a slot free.
        self._ser: float = config.router.packet_serialization_cycles
        self._pipeline: float = config.router.pipeline_cycles
        self._deliver_latency: float = (
            config.optical.fiber_latency_cycles + config.router.pipeline_cycles
        )
        self._hard_end: float = plan.hard_end
        self._blocked: Dict[Tuple[int, int], Deque[Tuple[_Node, Packet]]] = {}
        self._late = self.sim.schedule_late
        #: owner[dest][wavelength]: the SRS's live ownership table.
        self._owner = self.srs.owner

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def pair_queue(self, src_board: int, dst_board: int) -> _TxQueue:
        """The transmitter queue of board ``src_board`` toward ``dst_board``."""
        return self.boards[src_board].tx_queue(dst_board)

    def channels_owned_by(self, board: int) -> List[OpticalChannel]:
        """Every channel the board's transmitters currently drive.

        Served from the SRS owner index — O(channels owned), not O(W x B).
        Order matches the pre-index scan: destination-major, wavelength
        ascending (the ``channels`` dict insertion order, filtered).
        """
        channels = self.channels
        owned = self.srs.owned_wavelengths
        return [
            channels[(w, d)]
            for d in range(self.topology.boards)
            for w in owned(board, d)
        ]

    # ------------------------------------------------------------------
    # Reconfiguration actuation
    # ------------------------------------------------------------------
    def apply_grant(self, dest: int, wavelength: int, new_owner: Optional[int]) -> None:
        """Link-Response-stage actuation of one ownership change."""
        self.srs.grant(dest, wavelength, new_owner)
        ch = self.channels[(wavelength, dest)]
        ch.on_ownership_change()
        if new_owner is not None and len(self.pair_queue(new_owner, dest)) > 0:
            self._poke_channel(ch)

    def inject_laser_failure(self, dest: int, wavelength: int, at: float) -> None:
        """Schedule a hard channel failure at simulation time ``at``.

        The laser goes dark mid-run; any in-flight packet completes (the
        failure acts at the next dispatch, like every reconfiguration).
        Traffic queued on the owning pair recovers via DBR: the pair shows
        up channel-less with a non-empty queue at the next bandwidth window
        and is granted a surviving wavelength.
        """
        if self.sim.now > at:
            raise ConfigurationError(f"failure time {at} is in the past")
        self.sim.schedule_at(at, self._fail_now, dest, wavelength)

    def _fail_now(self, dest: int, wavelength: int) -> None:
        old_owner = self.srs.fail_channel(dest, wavelength)
        ch = self.channels[(wavelength, dest)]
        ch.on_ownership_change()
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "failure", f"ch({wavelength},{dest})",
                "laser failed", lost_owner=old_owner,
            )

    def _poke_channel(self, ch: OpticalChannel) -> None:
        """Schedule a dispatch for a parked channel (idempotent until it runs)."""
        if ch.parked:
            ch.parked = False
            self.sim.schedule_late(0.0, self._dispatch, ch)

    def _poke_pair(self, src_board: int, dst_board: int) -> None:
        """Wake one parked channel owned by the pair (called after a put).

        Iterates only the wavelengths the pair owns (SRS owner index), in
        ascending order — the same selection the pre-index scan over
        ``_channels_by_dest`` made.
        """
        into = self._channels_by_dest[dst_board]
        for w in self.srs.owned_wavelengths(src_board, dst_board):
            ch = into[w]
            if ch.parked:
                ch.parked = False
                self._late(0.0, self._dispatch, ch)
                return

    # ------------------------------------------------------------------
    # Callback state machines (one per port / channel, not one process)
    # ------------------------------------------------------------------
    def start(
        self,
        *,
        node_order: Optional[List[int]] = None,
        channel_order: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        """Schedule the initial injection ticks (idempotent guard).

        ``node_order`` / ``channel_order`` override the start-up order of
        the per-node machines and (formerly) the per-channel processes.
        Start-up order only sets the FIFO sequence numbers of same-time
        events, so a deterministic model produces identical results under
        any permutation of the *same* order — the determinism auditor
        (:mod:`repro.analysis.determinism`) exploits this to flag hidden
        iteration-order dependence.  Channels are born parked and woken by
        pokes, so ``channel_order`` is validated but schedules nothing.
        """
        if self._started:
            raise ConfigurationError("engine already started")
        self._started = True
        nodes = list(range(self.topology.total_nodes))
        if node_order is not None:
            if sorted(node_order) != nodes:
                raise ConfigurationError(
                    f"node_order must permute 0..{len(nodes) - 1}"
                )
            nodes = list(node_order)
        for node in nodes:
            model = self._node_of[node]
            source = self.sources[node]
            if hasattr(source.process, "bind_clock"):
                source.process.bind_clock(lambda: self.sim.now)
            self.sim.schedule_late(
                source.next_gap(), self._injection_tick, model, source
            )
        if channel_order is not None:
            if sorted(channel_order) != sorted(self.channels):
                raise ConfigurationError(
                    "channel_order must permute the engine's channel keys"
                )
        self.lockstep.start_fast()

    # Injection -----------------------------------------------------------
    #
    # Same-instant ordering contract: the coroutine engine interleaved all
    # machines' zero-delay steps through one FIFO of resume events, so a
    # state transition that took k suspensions landed k positions deep in
    # that instant's cascade.  The callback machines keep each such hop as
    # an explicit zero-delay continuation (``schedule_late(0.0, ...)``)
    # rather than calling through — collapsing a hop would move its
    # scheduling earlier in the FIFO and (rarely, under same-cycle
    # collisions) reorder same-time events against the coroutine engine,
    # breaking bit-identity of the run metrics.  Timed holds still fuse the
    # coroutine's fire + resume pair into a single event.
    def _injection_tick(self, model: _Node, source: TrafficSource) -> None:
        """One injection: make the packet, feed the send port."""
        now = self.sim.now
        if now >= self._hard_end:
            return
        pkt = source.next_packet(now, labeled=self.collector.labeling(now))
        model.injected += 1
        self.collector.on_injected(pkt, now)
        if model.send_busy:
            model.send_queue.append(pkt)
        else:
            model.send_busy = True
            self._late(0.0, self._send_begin, model, pkt)
        self._late(0.0, self._injection_next, model, source)

    def _injection_next(self, model: _Node, source: TrafficSource) -> None:
        """Draw the next gap and re-arm (the coroutine's loop-around hop)."""
        self._late(source.next_gap(), self._injection_tick, model, source)

    # Send port -----------------------------------------------------------
    def _send_begin(self, model: _Node, pkt: Packet) -> None:
        pkt.injected_at = self.sim.now
        self._late(self._ser, self._send_mid, model, pkt)

    def _send_mid(self, model: _Node, pkt: Packet) -> None:
        # Serialization done; cross the router pipeline.  This anchor event
        # is not fused into ``_send_begin``: same-time continuations run in
        # scheduling order, so the arrival event must be *seeded here*, at
        # the serialization boundary — exactly where the coroutine engine
        # created its pipeline timeout — or arrivals would sort against
        # same-instant events by the wrong moment and (rarely) swap
        # same-time deliveries.  Each hold is still one event, not the
        # coroutine's fire + resume pair.
        self._late(self._pipeline, self._send_done, model, pkt)

    def _send_done(self, model: _Node, pkt: Packet) -> None:
        s = model.board
        d = self._board_of[pkt.dst]
        if d == s:
            # Intra-board: skip the optical plane.  The coroutine's local
            # branch had no blocking put, so the next pop happens in this
            # event, one cascade level shallower than the remote branch.
            self._deliver(self._node_of[pkt.dst], pkt)
            self._send_pop(model)
            return
        q = self._txq[s][d]
        if len(q.items) >= q.capacity:
            # Backpressure: the send port stalls while the LC buffer is
            # full (wormhole blocking into the IBI); a channel pop re-admits
            # the packet and restarts the port.
            self._blocked.setdefault((s, d), deque()).append((model, pkt))
            self._poke_pair(s, d)
            return
        q.push(pkt, self.sim.now)
        self._poke_pair(s, d)
        self._late(0.0, self._send_pop, model)

    def _send_pop(self, model: _Node) -> None:
        """Pop the next packet for the send port, or go idle."""
        if model.send_queue:
            self._late(0.0, self._send_begin, model, model.send_queue.popleft())
        else:
            model.send_busy = False

    # Optical channel -----------------------------------------------------
    def _dispatch(self, ch: OpticalChannel) -> None:
        """One dispatch attempt: pop the owner's queue or park."""
        dest = ch.dest
        owner = self._owner[dest][ch.wavelength]
        if owner is not None:
            q = self._txq[owner][dest]
            if q.items:
                now = self.sim.now
                pkt = q.pop(now)
                blocked = self._blocked.get((owner, dest))
                if blocked:
                    # The pop freed one LC buffer slot: re-admit the oldest
                    # backpressured sender and restart its port.
                    bmodel, bpkt = blocked.popleft()
                    q.push(bpkt, now)
                    self._late(0.0, self._send_pop, bmodel)
                # Serve: a slept laser wakes first, then any DVS stall or
                # residual wake penalty passes, all at the packet boundary.
                wake_stall = ch.wake() if ch.sleeping else 0.0
                if wake_stall > 0:
                    self._late(wake_stall, self._wake_done, ch, pkt)
                else:
                    self._wake_done(ch, pkt)
                return
        ch.parked = True

    def _wake_done(self, ch: OpticalChannel, pkt: Packet) -> None:
        stall = ch.stall_until - self.sim.now
        if stall > 0:
            self._late(stall, self._begin_service, ch, pkt)
            return
        self._begin_service(ch, pkt)

    def _begin_service(self, ch: OpticalChannel, pkt: Packet) -> None:
        ch.set_busy(True)
        self._late(ch.service_cycles(pkt.size_bytes), self._end_service, ch, pkt)

    def _end_service(self, ch: OpticalChannel, pkt: Packet) -> None:
        ch.set_busy(False)
        ch.packets_served += 1
        pkt.wavelength = ch.wavelength
        self.sim.schedule_fast(
            self._deliver_latency, self._deliver, self._node_of[pkt.dst], pkt
        )
        # Greedy: grab the next packet in the same event (the coroutine
        # loop did the same within its service-done resume).
        self._dispatch(ch)

    # Receive port --------------------------------------------------------
    def _deliver(self, model: _Node, pkt: Packet) -> None:
        if model.recv_busy:
            model.recv_queue.append(pkt)
        else:
            model.recv_busy = True
            self._late(0.0, self._recv_start, model, pkt)

    def _recv_start(self, model: _Node, pkt: Packet) -> None:
        """Begin ejection serialization (the coroutine's getter-resume hop)."""
        self._late(self._ser, self._recv_done, model, pkt)

    def _recv_done(self, model: _Node, pkt: Packet) -> None:
        now = self.sim.now
        pkt.delivered_at = now
        model.delivered += 1
        self.collector.on_delivered(pkt, now)
        if model.recv_queue:
            self._late(0.0, self._recv_start, model, model.recv_queue.popleft())
        else:
            model.recv_busy = False

    # ------------------------------------------------------------------
    # Window bookkeeping
    # ------------------------------------------------------------------
    def reset_windows(self) -> None:
        for key in sorted(self.channels):
            self.channels[key].reset_window()
        for board in self.boards:
            board.reset_windows()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Warm up, measure, drain; return the run metrics."""
        if not self._started:
            self.start()
        plan = self.plan
        self.sim.run(until=plan.warmup)
        self.accountant.reset_window(self.sim.now)
        self.sim.run(until=plan.measure_end)
        self.collector.power_avg_mw = self.accountant.window_average_mw(self.sim.now)
        # Drain: run in chunks until every labeled packet lands (or cap).
        chunk = max(1000.0, self.config.control.window_cycles / 2)
        t = plan.measure_end
        while not self.collector.drained() and t < plan.hard_end:
            t = min(t + chunk, plan.hard_end)
            self.sim.run(until=t)
        return self.collector.result(
            policy=self.config.policy.name,
            pattern=self.workload.pattern,
            load=self.workload.load,
            grants=self.srs.grants,
            dpm_transitions=sum(
                self.channels[k].dpm_transitions for k in sorted(self.channels)
            ),
            sleeps=sum(self.channels[k].sleeps for k in sorted(self.channels)),
            lasers_on_final=self.srs.lasers_on(),
            events=self.sim.event_count,
        )
