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

from functools import partial
from math import inf
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.network.channel import Channel, Delivery
from repro.network.credit import CreditReturn
from repro.network.packet import Flit, Packet
from repro.sim.cycle import DueQueue
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.network.router import VCRouter

__all__ = ["SourceNI", "SinkNI"]


class SourceNI:
    """Send port: packets in, credit-controlled flits out, one tick a cycle.

    The NI behaves like an upstream router output port: it mirrors the
    downstream input-VC buffer space in ``credits`` and receives credit
    restores via ``router.set_credit_return``.  It carries one packet at a
    time, so every packet finds VC 0 free and all its flits ride VC 0.

    The pump is an explicit state machine: parked on an empty queue
    (``awake`` false), or mid-packet (``flits`` set) waiting on a credit
    or on the wire — a wait polls on the NI's own one-cycle grid (the next
    tick at ``now + 1``), which for receiver-side NIs woken by
    fractional-time fiber relays is a *fractional* grid anchored at the
    wake time.  A waiting pump's tick is a no-op, and ``hold`` says until
    when: the wire's ``busy_until`` while a credit is in hand, ``inf``
    while none is (a restore sets it back to the wire's), so the fabric
    skips the call while ``hold > now``.  External
    producers call :meth:`send`; when that wakes a parked pump,
    ``on_wake`` tells the owning fabric to tick the pump at the current
    time, so injection starts on that same cycle.  A pump calls
    ``on_wake`` once per wake, however many sends land before its tick.
    """

    __slots__ = (
        "sim", "name", "queue", "channel", "credits", "depth",
        "packets_injected", "awake", "hold", "on_wake", "flits", "_flit_idx",
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
        self.queue = Store(sim, capacity=queue_capacity)
        self.channel = Channel(
            sim,
            delivery_ring,
            sink=router,
            sink_port=port,
            latency=latency,
            cycles_per_flit=cycles_per_flit,
            name=f"{self.name}.ch",
        )
        #: Free slots of the router's VC-0 buffer on ``port``.
        self.credits = self.depth = router.buf_depth
        router.set_credit_return(port, self._restore_credit)
        self.packets_injected = 0
        #: False while parked on an empty queue (no tick needed).
        self.awake = False
        #: A tick before this time is a no-op (the pump waits mid-packet).
        self.hold = 0.0
        self.on_wake = on_wake
        #: The flits of the packet being injected; None between packets.
        self.flits: Optional[List[Flit]] = None
        self._flit_idx = 0

    # ------------------------------------------------------------------
    def send(self, packet: Packet):
        """Queue ``packet`` for injection; returns the put waitable.

        Producers run as priority-0 kernel events, so a wake here always
        lands before the cycle driver's tick at the same time.
        """
        req = self.queue.put(packet)
        if not self.awake:
            # Parked on an empty queue: resume this very cycle.  A second
            # send before that tick finds the pump awake and wakes nothing.
            self.awake = True
            self.on_wake()
        return req

    def _restore_credit(self, vc: int) -> None:
        if vc or self.credits >= self.depth:
            raise SimulationError(
                f"{self.name!r} credit overflow on VC {vc}: restore past "
                f"initial count {self.depth}"
            )
        self.credits += 1
        if self.flits is not None:
            # The wait on a credit is over; only the wire can hold a
            # mid-packet pump now.  A parked pump keeps hold 0, so its
            # wake-up tick runs (and stamps the next packet) at once.
            self.hold = self.channel.busy_until

    # ------------------------------------------------------------------
    def tick(self, now: float) -> bool:
        """One pump cycle: inject as far as credits and the wire allow.

        Returns whether the pump needs the next cycle's tick; ``False``
        means it parked on an empty queue.
        """
        channel = self.channel
        while True:
            flits = self.flits
            if flits is None:
                ok, pkt = self.queue.try_get()
                if not ok:
                    self.awake = False
                    self.hold = 0.0
                    return False
                pkt.injected_at = now
                self.flits = flits = pkt.flits()
                self._flit_idx = 0
            # Wait for a credit and for the wire to be free.
            if self.credits <= 0:
                self.hold = inf
                return True
            if channel.busy_until > now:
                self.hold = channel.busy_until
                return True
            flit = flits[self._flit_idx]
            flit.vc = 0
            self.credits -= 1
            channel.send(flit)
            if flit.is_tail:
                self.flits = None
                self.packets_injected += 1
                # The next queued packet may start this same cycle (its
                # head flit then finds the wire busy), so loop rather
                # than wait for the next tick.
                continue
            self._flit_idx += 1
            self.hold = channel.busy_until if self.credits > 0 else inf
            return True


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
        self._credit_restore = partial(router.restore_credit, out_port)
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
