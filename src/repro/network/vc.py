"""Virtual-channel state machines.

Per-packet router state follows Dally & Towles: an input VC cycles through

    IDLE -> ROUTING -> WAITING_VC -> ACTIVE -> (tail departs) -> IDLE

Route computation (RC) moves ROUTING -> WAITING_VC; VC allocation (VA) moves
WAITING_VC -> ACTIVE; switch allocation/traversal (SA/ST) drain flits while
ACTIVE.

:class:`VCStatus` is the live router's state vocabulary; the router keeps
the rest of this state flat, per VC (:mod:`repro.network.router`).
:class:`InputVC` and :class:`OutputVC` are the same machines as checked
objects, the primitives the frozen process-driven oracle
(``repro.perf.legacy_detailed``) builds its router from.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.network.buffers import FlitBuffer
from repro.network.credit import CreditCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["VCStatus", "InputVC", "OutputVC"]


class VCStatus(Enum):
    IDLE = "idle"
    ROUTING = "routing"
    WAITING_VC = "waiting_vc"
    ACTIVE = "active"


class InputVC:
    """State for one virtual channel at a router input port."""

    __slots__ = ("buffer", "status", "out_port", "out_vc")

    def __init__(self, sim: "Simulator", depth: int, name: str = "") -> None:
        # ``sim`` stays in the signature the frozen oracle calls; the
        # buffer keeps no time-weighted statistics, so it needs no clock.
        self.buffer = FlitBuffer(depth, name=name)
        self.status = VCStatus.IDLE
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None

    def start_packet(self) -> None:
        if self.status is not VCStatus.IDLE:
            raise SimulationError(f"start_packet in state {self.status}")
        self.status = VCStatus.ROUTING

    def routed(self, out_port: int) -> None:
        if self.status is not VCStatus.ROUTING:
            raise SimulationError(f"routed() in state {self.status}")
        self.out_port = out_port
        self.status = VCStatus.WAITING_VC

    def vc_granted(self, out_vc: int) -> None:
        if self.status is not VCStatus.WAITING_VC:
            raise SimulationError(f"vc_granted() in state {self.status}")
        self.out_vc = out_vc
        self.status = VCStatus.ACTIVE

    def finish_packet(self) -> None:
        if self.status is not VCStatus.ACTIVE:
            raise SimulationError(f"finish_packet() in state {self.status}")
        self.status = VCStatus.IDLE
        self.out_port = None
        self.out_vc = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InputVC {self.status.value} buf={len(self.buffer)}>"


class OutputVC:
    """State for one virtual channel at a router output port."""

    __slots__ = ("credits", "allocated_to")

    def __init__(self, downstream_depth: int) -> None:
        self.credits = CreditCounter(downstream_depth)
        #: (in_port, in_vc) currently holding this output VC, or None.
        self.allocated_to: Optional[tuple[int, int]] = None

    @property
    def is_free(self) -> bool:
        return self.allocated_to is None

    def allocate(self, in_port: int, in_vc: int) -> None:
        if self.allocated_to is not None:
            raise SimulationError(f"output VC double allocation {self.allocated_to}")
        self.allocated_to = (in_port, in_vc)

    def free(self) -> None:
        if self.allocated_to is None:
            raise SimulationError("freeing an unallocated output VC")
        self.allocated_to = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OutputVC to={self.allocated_to} credits={self.credits.credits}>"
