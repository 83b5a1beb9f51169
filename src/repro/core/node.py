"""Per-node model: network-interface queues and statistics.

Each node owns a send port and a receive port (§2.1): single-server
queues with the Table-1 electrical serialization time (32 cycles/packet
at 6.4 Gbps).  :class:`NodeModel` is the form a process-per-port engine
blocks on (``yield send_queue.get()``) — the frozen coroutine oracle in
:mod:`repro.perf.legacy_engine`.  The callback fast engine never blocks
inside a port and keeps plain FIFOs instead (``repro.core.engine._Node``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.queues import MonitoredStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["NodeModel"]


class NodeModel:
    """Queues and counters for one compute node."""

    __slots__ = (
        "node_id",
        "board",
        "send_queue",
        "recv_queue",
        "injected",
        "delivered",
    )

    def __init__(self, sim: "Simulator", node_id: int, board: int) -> None:
        self.node_id = node_id
        self.board = board
        #: Packets awaiting send-port serialization (NI injection FIFO).
        self.send_queue = MonitoredStore(sim, name=f"n{node_id}.send")
        #: Packets awaiting receive-port serialization (NI ejection FIFO).
        self.recv_queue = MonitoredStore(sim, name=f"n{node_id}.recv")
        self.injected = 0
        self.delivered = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeModel {self.node_id}@b{self.board} "
            f"send={len(self.send_queue)} recv={len(self.recv_queue)}>"
        )
