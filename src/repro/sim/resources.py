"""The blocking FIFO store processes queue items through.

:class:`Store` is a FIFO buffer of items with optional capacity:
``yield store.put(item)`` / ``item = yield store.get()`` from a process,
or the non-blocking ``try_put`` / ``try_get`` / ``offer`` / ``admit`` from
callback code.  The blocking calls hand out
:class:`~repro.sim.events.Waitable` request objects that fire when the
item is buffered or handed over.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Waitable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["Store"]


class Store:
    """A FIFO buffer of items; the workhorse behind every queue in the models.

    Parameters
    ----------
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.  A
        ``put`` on a full store blocks until space frees up.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Waitable] = deque()
        self._putters: Deque[tuple[Waitable, Any]] = deque()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, item: Any) -> Waitable:
        """A waitable that fires (with ``item``) once the item is buffered."""
        req = Waitable(self.sim)
        if self._getters:
            # Hand straight to the oldest blocked getter (store stays empty).
            self._getters.popleft().trigger(item)
            req.trigger(item)
        elif not self.is_full:
            self._on_item_enqueued(item)
            req.trigger(item)
        else:
            self._putters.append((req, item))
        return req

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns ``False`` when the store is full."""
        if self._getters:
            self._getters.popleft().trigger(item)
            return True
        if self.is_full:
            return False
        self._on_item_enqueued(item)
        return True

    def offer(self, item: Any) -> bool:
        """Non-blocking put for callback producers; ``False`` when full.

        Semantically :meth:`try_put`, but monitored subclasses count the
        *attempt* (like a blocking :meth:`put` does) so a producer that
        parks itself on rejection and re-enters via :meth:`admit` leaves
        the same arrival statistics as one that blocked inside ``put``.
        """
        if self._getters:
            self._getters.popleft().trigger(item)
            return True
        if self.is_full:
            return False
        self._on_item_enqueued(item)
        return True

    def admit(self, item: Any) -> None:
        """Enqueue an item whose arrival a failed :meth:`offer` already
        counted — the callback analogue of the blocked-putter hand-off
        (:meth:`_admit_putter`).  The caller must have freed a slot."""
        if self.is_full:
            raise SimulationError("admit() into a full store")
        self._on_item_enqueued(item)

    def get(self) -> Waitable:
        """A waitable that fires with the oldest item once one is available."""
        req = Waitable(self.sim)
        if self._items:
            item = self._items.popleft()
            self._on_item_dequeued(item)
            self._admit_putter()
            req.trigger(item)
        else:
            self._getters.append(req)
        return req

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._on_item_dequeued(item)
        if self._putters:
            self._admit_putter()
        return True, item

    # ------------------------------------------------------------------
    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            req, item = self._putters.popleft()
            self._on_item_enqueued(item)
            req.trigger(item)

    # Hooks for monitored subclasses -----------------------------------
    def _on_item_enqueued(self, item: Any) -> None:
        self._items.append(item)

    def _on_item_dequeued(self, item: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {len(self._items)}/{cap}>"
