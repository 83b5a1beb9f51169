"""Monitored FIFO queues.

:class:`MonitoredStore` extends :class:`repro.sim.resources.Store` with the
time-weighted occupancy and throughput counters the E-RAPID link controllers
read every reconfiguration window (the paper's ``Buffer_util`` hardware
counter), plus per-item dwell-time statistics.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.sim.events import Waitable
from repro.sim.resources import Store
from repro.sim.stats import Tally, TimeWeighted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["MonitoredStore"]


class MonitoredStore(Store):
    """A :class:`Store` that tracks occupancy, arrivals and dwell time.

    ``occupancy.window(now)`` gives the time-averaged number of buffered
    items over the current measurement window; dividing by ``capacity``
    yields the paper's ``Buffer_util``.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None, name: str = "") -> None:
        super().__init__(sim, capacity)
        self.name = name
        self.occupancy = TimeWeighted(sim.now, 0.0)
        self.dwell = Tally()
        self.arrivals = 0
        self.departures = 0
        self._enqueue_times: dict[int, float] = {}

    # ------------------------------------------------------------------
    def buffer_util(self, now: Optional[float] = None) -> float:
        """Windowed ``Buffer_util`` in [0, 1] (occupancy / capacity).

        For an unbounded store the raw mean occupancy is returned (callers
        should configure a capacity to get a bounded utilization).
        """
        now = self.sim.now if now is None else now
        occ = self.occupancy.window(now)
        if self.capacity is None:
            return occ
        return min(1.0, occ / self.capacity)

    def reset_window(self, now: Optional[float] = None) -> None:
        """Start a new ``R_w`` measurement window."""
        now = self.sim.now if now is None else now
        self.occupancy.reset_window(now)

    # ------------------------------------------------------------------
    # Store hooks
    # ------------------------------------------------------------------
    def put(self, item: Any) -> Waitable:  # noqa: D102 - see Store.put
        self.arrivals += 1
        had_getter = bool(self._getters)
        req = super().put(item)
        if had_getter:
            # Direct hand-off: never buffered, dwell time zero.
            self.departures += 1
            self.dwell.add(0.0)
        return req

    def try_put(self, item: Any) -> bool:  # noqa: D102 - see Store.try_put
        had_getter = bool(self._getters)
        ok = super().try_put(item)
        if ok:
            self.arrivals += 1
            if had_getter:
                self.departures += 1
                self.dwell.add(0.0)
        return ok

    def offer(self, item: Any) -> bool:  # noqa: D102 - see Store.offer
        # Like the blocking put(), the attempt counts as an arrival even
        # when the store is full — the item is en route, merely stalled.
        self.arrivals += 1
        had_getter = bool(self._getters)
        ok = super().offer(item)
        if ok and had_getter:
            self.departures += 1
            self.dwell.add(0.0)
        return ok

    def _on_item_enqueued(self, item: Any) -> None:
        self._items.append(item)
        now = self.sim.now
        self._enqueue_times[id(item)] = now
        self.occupancy.add(now, +1.0)

    def _on_item_dequeued(self, item: Any) -> None:
        now = self.sim.now
        t0 = self._enqueue_times.pop(id(item), now)
        self.dwell.add(now - t0)
        self.departures += 1
        self.occupancy.add(now, -1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"<MonitoredStore {self.name!r} {len(self._items)}/{cap}>"
