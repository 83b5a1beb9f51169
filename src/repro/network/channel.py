"""Electrical channels between router ports.

Table 1: 16-bit channels at 400 MHz (6.4 Gbps unidirectional).  A 64-bit
flit therefore occupies the wire for 4 cycles (``cycles_per_flit``); the
channel enforces that serialization, and each flit comes due at its sink
``latency`` cycles of wire delay later, on the fabric's delivery
due-queue (:mod:`repro.network.fabric`).
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.network.packet import Flit
from repro.sim.cycle import DueQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["FlitSink", "Channel", "Delivery"]


class FlitSink(Protocol):
    """Anything that can receive flits from a channel."""

    def receive_flit(self, flit: Flit, port: int) -> None:  # pragma: no cover
        ...


#: One in-flight delivery: (sink, sink_port, flit).
Delivery = Tuple["FlitSink", int, Flit]


class Channel:
    """Unidirectional flit channel with serialization and wire latency.

    :meth:`send` appends the flit's delivery to a shared
    :class:`~repro.sim.cycle.DueQueue`; the owning fabric's tick hands it
    to the sink's ``receive_flit`` when it comes due, so a flit in flight
    costs a deque append, not a kernel heap event.
    """

    __slots__ = (
        "sim", "ring", "sink", "sink_port", "latency", "cycles_per_flit",
        "name", "busy_until", "flits_sent",
    )

    def __init__(
        self,
        sim: "Simulator",
        ring: DueQueue[Delivery],
        sink: Optional[FlitSink] = None,
        sink_port: int = 0,
        latency: int = 1,
        cycles_per_flit: int = 4,
        name: str = "",
    ) -> None:
        if latency < 0:
            raise SimulationError(f"negative channel latency {latency}")
        if cycles_per_flit < 1:
            raise SimulationError(f"cycles_per_flit must be >= 1, got {cycles_per_flit}")
        self.sim = sim
        self.ring = ring
        self.sink = sink
        self.sink_port = sink_port
        self.latency = latency
        self.cycles_per_flit = cycles_per_flit
        self.name = name
        #: The wire serializes a flit until this time (clocked readers
        #: compare it with their tick's ``now``).
        self.busy_until = 0.0
        self.flits_sent = 0

    @property
    def busy(self) -> bool:
        """Whether the wire is still serializing a previous flit."""
        return self.sim.now < self.busy_until

    def send(self, flit: Flit) -> None:
        """Serialize ``flit``; it comes due at the sink after ser + latency."""
        sink = self.sink
        if sink is None:
            raise SimulationError(f"channel {self.name!r} has no sink")
        now = self.sim.now
        if now < self.busy_until:
            raise SimulationError(
                f"channel {self.name!r} busy until {self.busy_until}; "
                "router ST stage must check Channel.busy"
            )
        self.busy_until = free = now + self.cycles_per_flit
        self.flits_sent += 1
        self.ring.push(free + self.latency, (sink, self.sink_port, flit))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name!r} cpf={self.cycles_per_flit} lat={self.latency}>"
