"""The clocked electrical substrate and its clock loop.

A :class:`Fabric` owns everything in the flit domain that works per cycle:
the routers and the source-NI pumps (each in creation order), the two
due-queues that carry flits and credits between them, and the
:class:`~repro.sim.cycle.CycleDriver` that ticks them.  The detailed
engine composes one fabric for a whole E-RAPID system; the substrate
tests build their single-router stars on the same class, so both run the
same tick.

Each tick runs four phases in a fixed order:

1. **Credits** — apply every due entry of the credit due-queue (upstream
   restores from router traversal and sink ejection).
2. **Deliveries** — hand every due in-flight flit from the delivery
   due-queue to its sink's ``receive_flit``.
3. **Routers** — on integer cycle boundaries only, tick each router in
   creation order, skipping routers whose input VCs are all idle
   (``busy_vcs == 0`` — a provable no-op cycle).
4. **NI pumps** — tick each :class:`~repro.network.interface.SourceNI`
   due now, in creation order.  Pumps woken at fractional times (by
   injection draws or fiber relays) poll on their own ``wake + k`` grid.

A parked pump (``awake`` false) costs nothing: the fabric keeps the
awake pumps in buckets keyed by their next due time, a wake puts the
pump in the bucket for *now*, and phase 4 visits only the bucket for the
tick's time, sorted into creation order.  A pump waiting mid-packet on a
credit or on the wire costs one attribute read: its tick would be a
no-op until its ``hold`` time, so the fabric skips the call.  Every
pump still awake afterwards polls again one cycle later, so the whole
survivor list becomes the bucket for ``now + 1``, which the tick arms.
Every tick re-arms the driver at its other obligations: the next integer
cycle while any router is busy, and the due-queues' next due times.
The driver schedules ticks in the
kernel's priority-1 class, so every priority-0 event at time *t*
(injection draws, packet hand-offs, fiber relays, DPM window decisions)
is visible to the tick at *t*.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.network.channel import Delivery
from repro.network.credit import CreditReturn
from repro.network.interface import SinkNI, SourceNI
from repro.network.packet import Packet
from repro.network.router import RoutingFn, VCRouter
from repro.sim.cycle import CycleDriver, DueQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["Fabric"]


class Fabric:
    """Routers, NI pumps, their due-queues and the one clock loop."""

    __slots__ = (
        "sim", "deliveries", "credits", "driver", "routers", "pumps", "_pumps_due",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: In-flight flits: (sink, sink_port, flit) by due time.
        self.deliveries: DueQueue[Delivery] = DueQueue()
        #: Pending upstream credit restores by due time.
        self.credits: DueQueue[CreditReturn] = DueQueue()
        self.driver = CycleDriver(sim, self.tick)
        self.routers: List[VCRouter] = []
        self.pumps: List[SourceNI] = []
        #: Due time -> indices into ``pumps`` of the awake pumps due then.
        self._pumps_due: Dict[float, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(
        self,
        n_ports: int,
        routing_fn: RoutingFn,
        n_vcs: int = 2,
        buf_depth: int = 1,
        credit_latency: int = 1,
        name: str = "router",
    ) -> VCRouter:
        """A router ticked by this fabric (after those created before it)."""
        router = VCRouter(
            self.sim, n_ports, routing_fn, self.credits, n_vcs=n_vcs,
            buf_depth=buf_depth, credit_latency=credit_latency, name=name,
        )
        self.routers.append(router)
        return router

    def add_source(
        self,
        router: VCRouter,
        port: int,
        cycles_per_flit: int = 4,
        queue_capacity: Optional[int] = None,
        name: str = "",
    ) -> SourceNI:
        """A send port into ``router``'s input ``port``, pumped by this fabric."""
        index = len(self.pumps)
        ni = SourceNI(
            self.sim, router, port, self.deliveries,
            lambda: self._wake(index),
            cycles_per_flit=cycles_per_flit, queue_capacity=queue_capacity,
            name=name,
        )
        self.pumps.append(ni)
        return ni

    def add_sink(
        self,
        router: VCRouter,
        port: int,
        on_packet: Optional[Callable[[Packet], None]] = None,
        cycles_per_flit: int = 4,
        name: str = "",
    ) -> SinkNI:
        """A receive port on ``router``'s output ``port``."""
        sink = SinkNI(
            self.sim, self.deliveries, self.credits, on_packet=on_packet, name=name
        )
        sink.attach(router, port, cycles_per_flit=cycles_per_flit)
        return sink

    def _wake(self, index: int) -> None:
        """Parked pump ``index`` got a packet: tick it this very cycle."""
        now = self.sim.now
        due = self._pumps_due.get(now)
        if due is None:
            self._pumps_due[now] = [index]
        else:
            due.append(index)
        self.driver.arm(now)

    # ------------------------------------------------------------------
    # The clock loop
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """One synchronous cycle of the whole electrical substrate."""
        # Phase 1 — due credit restores (traversal + ejection returns).
        credit_ring = self.credits
        while credit_ring and credit_ring[0][0] <= now:
            restore, vc = credit_ring.popleft()[1]
            restore(vc)
        # Phase 2 — due channel deliveries.
        delivery_ring = self.deliveries
        while delivery_ring and delivery_ring[0][0] <= now:
            sink, port, flit = delivery_ring.popleft()[1]
            sink.receive_flit(flit, port)
        # Phase 3 — router pipelines, on the integer cycle grid, creation
        # order, idle-skip.  A router still busy after it needs the next
        # integer cycle.
        arm = self.driver.arm
        busy = False
        if now.is_integer():
            for router in self.routers:
                if router.busy_vcs:
                    router.tick(now)
                    if router.busy_vcs:
                        busy = True
        else:
            for router in self.routers:
                if router.busy_vcs:
                    busy = True
                    break
        if busy:
            arm(float(int(now)) + 1.0)
        # Phase 4 — the pumps due now, in creation order.  A pump on hold
        # (waiting on a credit or on the wire) would tick as a no-op: keep
        # it awake without the call.  Every pump still awake polls again
        # at now + 1, so they all join that bucket, which this tick arms.
        due = self._pumps_due.pop(now, None)
        if due is not None:
            if len(due) > 1:
                due.sort()
            pumps = self.pumps
            awake: List[int] = []
            for index in due:
                ni = pumps[index]
                if ni.hold > now or ni.tick(now):
                    awake.append(index)
            if awake:
                nxt = now + 1.0
                later = self._pumps_due.get(nxt)
                if later is None:
                    self._pumps_due[nxt] = awake
                    arm(nxt)
                else:
                    later.extend(awake)
        if credit_ring:
            arm(credit_ring[0][0])
        if delivery_ring:
            arm(delivery_ring[0][0])
