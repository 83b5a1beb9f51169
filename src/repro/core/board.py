"""Per-board model: nodes and outgoing transmitter queues.

A board aggregates D nodes on the IBI plus one transmitter queue per remote
destination board — the queue the LC's ``Buffer_util`` counter watches and
the (one or more) optical channels granted to the (board, destination) pair
drain.  The paper's "spread the traffic on the transmitter board" falls out
of several channels serving one queue.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.core.node import NodeModel
from repro.errors import ConfigurationError
from repro.sim.queues import MonitoredStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.network.topology import ERapidTopology

__all__ = ["BoardModel"]


class BoardModel:
    """Nodes + per-destination transmitter queues for one board."""

    __slots__ = ("board", "nodes", "tx_queues")

    def __init__(
        self,
        sim: "Simulator",
        board: int,
        topology: "ERapidTopology",
        tx_queue_capacity: int,
        nodes: Optional[Sequence[Any]] = None,
        tx_queues: Optional[Mapping[int, Any]] = None,
    ) -> None:
        self.board = board
        #: The board's node models, local index order.  Engines that drive
        #: their ports without blocking pass their own (the fast engine's
        #: plain FIFOs); the default is a :class:`NodeModel` per node.
        self.nodes: List[Any] = (
            list(nodes)
            if nodes is not None
            else [NodeModel(sim, node, board) for node in topology.nodes_on_board(board)]
        )
        #: dest board -> transmitter queue (the LC-monitored buffer).  The
        #: fast engine passes its own inline-monitored FIFOs; the default
        #: is the blocking :class:`MonitoredStore` the coroutine oracle
        #: waits on.
        self.tx_queues: Dict[int, Any] = (
            dict(tx_queues)
            if tx_queues is not None
            else {
                d: MonitoredStore(
                    sim, capacity=tx_queue_capacity, name=f"b{board}->b{d}.txq"
                )
                for d in range(topology.boards)
                if d != board
            }
        )

    def tx_queue(self, dest: int) -> Any:
        try:
            return self.tx_queues[dest]
        except KeyError:
            raise ConfigurationError(
                f"board {self.board} has no transmitter queue toward {dest}"
            ) from None

    def reset_windows(self) -> None:
        """Start a new R_w window on every LC buffer counter."""
        for dest in sorted(self.tx_queues):
            self.tx_queues[dest].reset_window()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BoardModel b{self.board} nodes={len(self.nodes)}>"
