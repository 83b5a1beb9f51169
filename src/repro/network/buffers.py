"""Flit buffers.

Each router input port has one :class:`FlitBuffer` per virtual channel.
Buffers are strict FIFOs with a hard capacity (credit-based flow control
guarantees no overflow; overflowing is therefore a protocol bug and raises).
The live router keeps its VC buffers as plain deques in flat per-VC state
(:mod:`repro.network.router`); this class is the standalone primitive the
frozen process-driven oracle (``repro.perf.legacy_detailed``) builds its
input VCs from.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.network.packet import Flit

__all__ = ["FlitBuffer"]


class FlitBuffer:
    """A fixed-capacity FIFO of flits."""

    __slots__ = ("capacity", "name", "_flits")

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"flit buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._flits: Deque[Flit] = deque()

    def __len__(self) -> int:
        return len(self._flits)

    @property
    def is_empty(self) -> bool:
        return not self._flits

    @property
    def is_full(self) -> bool:
        return len(self._flits) >= self.capacity

    @property
    def space(self) -> int:
        return self.capacity - len(self._flits)

    def push(self, flit: Flit) -> None:
        """Append a flit; raises on overflow (a flow-control violation)."""
        if self.is_full:
            raise SimulationError(
                f"flit buffer {self.name!r} overflow (capacity {self.capacity}); "
                "credit-based flow control was violated"
            )
        self._flits.append(flit)

    def front(self) -> Optional[Flit]:
        """Peek at the oldest flit without removing it."""
        return self._flits[0] if self._flits else None

    def pop(self) -> Flit:
        """Remove and return the oldest flit."""
        if not self._flits:
            raise SimulationError(f"pop from empty flit buffer {self.name!r}")
        return self._flits.popleft()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlitBuffer {self.name!r} {len(self._flits)}/{self.capacity}>"
