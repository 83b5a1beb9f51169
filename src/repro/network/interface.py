"""Network interfaces (send/receive ports at each node).

§2.1 of the paper: "The network interface at every node is composed of send
and receive ports."  :class:`SourceNI` serializes packets into flits and
injects them into a router input port under credit-based flow control;
:class:`SinkNI` reassembles flits into packets at the destination, returning
credits as flits are consumed.

Both are clocked: the source NI's per-cycle work is a ``tick`` method the
fabric's clock loop invokes (:mod:`repro.network.fabric`), and the sink's
flits and credits travel on the fabric's due-queues, so neither costs a
kernel event per cycle or per flit.
"""

from __future__ import annotations

from math import inf
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.network.channel import Channel, Delivery
from repro.network.credit import CreditCounter, CreditReturn
from repro.network.packet import Flit, Packet
from repro.sim.cycle import DueQueue
from repro.sim.queues import MonitoredStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.network.router import VCRouter

__all__ = ["SourceNI", "SinkNI"]


class SourceNI:
    """Send port: packets in, credit-controlled flits out, one tick a cycle.

    The NI behaves like an upstream router output port: it mirrors the
    downstream input-VC buffer space in :class:`CreditCounter` instances and
    receives credit restores via ``router.set_credit_return``.

    The pump is an explicit state machine: parked on an empty queue
    (``next_due == inf``), waiting for a free VC, or mid-packet waiting on
    credit/wire — the latter two poll on the NI's own one-cycle grid
    (``next_due = now + 1``), which for receiver-side NIs woken by
    fractional-time fiber relays is a *fractional* grid anchored at the
    wake time.  External producers call :meth:`send`; when that wakes a
    parked pump, ``on_wake`` tells the owning fabric to tick the pump at
    the current time, so injection starts on that same cycle.  A pump
    calls ``on_wake`` once per wake, however many sends land before its
    tick.
    """

    __slots__ = (
        "sim", "name", "queue", "channel", "_credits", "_vc_busy",
        "packets_injected", "next_due", "on_wake", "_packet", "_flits",
        "_flit_idx", "_vc",
    )

    def __init__(
        self,
        sim: "Simulator",
        router: "VCRouter",
        port: int,
        delivery_ring: DueQueue[Delivery],
        on_wake: Callable[[], None],
        latency: int = 1,
        cycles_per_flit: int = 4,
        queue_capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.name = name or f"src-ni.p{port}"
        self.queue: MonitoredStore = MonitoredStore(
            sim, capacity=queue_capacity, name=f"{self.name}.q"
        )
        self.channel = Channel(
            sim,
            delivery_ring,
            sink=router,
            sink_port=port,
            latency=latency,
            cycles_per_flit=cycles_per_flit,
            name=f"{self.name}.ch",
        )
        self._credits: List[CreditCounter] = [
            CreditCounter(router.buf_depth) for _ in range(router.n_vcs)
        ]
        self._vc_busy: List[bool] = [False] * router.n_vcs
        router.set_credit_return(port, self._restore_credit)
        self.packets_injected = 0
        #: Next simulation time this pump needs a tick; ``inf`` when parked.
        self.next_due = inf
        self.on_wake = on_wake
        self._packet: Optional[Packet] = None
        self._flits: Sequence[Flit] = ()
        self._flit_idx = 0
        self._vc = -1

    # ------------------------------------------------------------------
    def send(self, packet: Packet):
        """Queue ``packet`` for injection; returns the put waitable.

        Producers run as priority-0 kernel events, so a wake here always
        lands before the cycle driver's tick at the same time.
        """
        req = self.queue.put(packet)
        if self.next_due == inf:
            # Parked on an empty queue: resume this very cycle.  A second
            # send before that tick finds the pump awake and wakes nothing.
            self.next_due = self.sim.now
            self.on_wake()
        return req

    def _restore_credit(self, vc: int) -> None:
        self._credits[vc].restore()

    def _pick_vc(self) -> Optional[int]:
        for vc, busy in enumerate(self._vc_busy):
            if not busy:
                return vc
        return None

    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """One pump cycle: inject as far as VCs, credits and the wire allow."""
        credits = self._credits
        channel = self.channel
        while True:
            pkt = self._packet
            if pkt is None:
                ok, pkt = self.queue.try_get()
                if not ok:
                    self.next_due = inf
                    return
                self._packet = pkt
            vc = self._vc
            if vc < 0:
                picked = self._pick_vc()
                if picked is None:
                    # All VCs carry an in-flight packet; retry next cycle.
                    self.next_due = now + 1.0
                    return
                vc = picked
                self._vc = vc
                self._vc_busy[vc] = True
                pkt.injected_at = now
                self._flits = pkt.flits()
                self._flit_idx = 0
            # Wait for a credit and for the wire to be free.
            if credits[vc].credits <= 0 or channel.busy_until > now:
                self.next_due = now + 1.0
                return
            flit = self._flits[self._flit_idx]
            flit.vc = vc
            credits[vc].consume()
            channel.send(flit)
            if flit.is_tail:
                self._vc_busy[vc] = False
                self._vc = -1
                self._packet = None
                self._flits = ()
                self.packets_injected += 1
                # The next queued packet may start this same cycle (its
                # head flit then finds the wire busy), so loop rather
                # than wait for the next tick.
                continue
            self._flit_idx += 1
            self.next_due = now + 1.0
            return


class SinkNI:
    """Receive port: reassembles flits into packets and records delivery.

    Each consumed flit returns its credit upstream one cycle later through
    the fabric's credit due-queue.
    """

    __slots__ = (
        "sim", "name", "on_packet", "packets_received", "flits_received",
        "_credit_restore", "delivery_ring", "credit_ring",
    )

    def __init__(
        self,
        sim: "Simulator",
        delivery_ring: DueQueue[Delivery],
        credit_ring: DueQueue[CreditReturn],
        on_packet: Optional[Callable[[Packet], None]] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.name = name or "sink-ni"
        self.on_packet = on_packet
        self.packets_received = 0
        self.flits_received = 0
        #: Installed when attached downstream of a router output port.
        self._credit_restore: Optional[Callable[[int], None]] = None
        self.delivery_ring = delivery_ring
        self.credit_ring = credit_ring

    def attach(self, router: "VCRouter", out_port: int, latency: int = 1,
               cycles_per_flit: int = 4) -> Channel:
        """Create the channel from ``router``'s output port to this sink."""
        channel = Channel(
            self.sim,
            self.delivery_ring,
            sink=self,
            sink_port=out_port,
            latency=latency,
            cycles_per_flit=cycles_per_flit,
            name=f"{self.name}.ch",
        )
        router.attach_output(out_port, channel)
        self._credit_restore = lambda vc: router.restore_credit(out_port, vc)
        return channel

    def eject(self, flit: Flit) -> None:
        """Consume ``flit``: count it and return its credit a cycle later."""
        self.flits_received += 1
        if self._credit_restore is not None:
            if flit.vc is None:
                raise ConfigurationError("flit arrived at sink without a VC")
            self.credit_ring.push(
                self.sim.now + 1.0, (self._credit_restore, flit.vc)
            )

    def receive_flit(self, flit: Flit, port: int) -> None:
        self.eject(flit)
        if flit.is_tail:
            packet = flit.packet
            packet.delivered_at = self.sim.now
            self.packets_received += 1
            if self.on_packet is not None:
                self.on_packet(packet)
