"""Cycle-synchronous driver riding on the event kernel.

Booksim-style flit-level models spend their time in a synchronous clock
loop over flat component arrays, not in per-component heap events.  This
module provides that loop as a *guest* of the discrete-event kernel, so a
clocked subsystem (the detailed engine's routers, NIs and channels) can
coexist with coarse event-driven processes (injection draws, optical
serialization, DPM windows) on one shared clock:

:class:`CycleDriver`
    Schedules at most one *tick* per requested time through the kernel's
    priority-1 continuation class (:meth:`Simulator.schedule_late`), so a
    tick at time ``t`` always runs **after** every priority-0 event at
    ``t`` — packet hand-offs, fiber relays and DPM decisions scheduled for
    a cycle are visible to that cycle's tick, exactly as they were visible
    to the per-component processes (which resumed one waitable-trigger
    wave after those events).  When nothing arms the driver, no tick is
    scheduled: a quiescent system costs zero heap events per cycle.

:class:`DueQueue`
    A due-ordered FIFO of ``(due_time, item)`` entries — the batched
    replacement for per-flit delivery and per-credit kernel events.
    Producers that share one latency push with non-decreasing due times
    (each tick pushes at ``now + constant``), so a push is an append and
    readiness is a single front comparison; a push due earlier than the
    last one (producers with different latencies) is inserted in order.

Determinism: ticks fire in time order; within a tick the *caller* iterates
components in a fixed structural order.  Arming the same time twice is
coalesced, so tick times never race on insertion order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Deque, Tuple, TypeVar, TYPE_CHECKING

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["CycleDriver", "DueQueue"]

_T = TypeVar("_T")


def _due(entry: Tuple[float, object]) -> float:
    return entry[0]


class DueQueue(Deque[Tuple[float, _T]]):
    """FIFO of items that become due at known times, kept in due order.

    A deque of ``(due, item)`` entries.  Entries pop in ``due`` order and,
    among equal dues, in push order — the kernel's own ``(time, FIFO)``
    order.  Every push made while the clock reads ``now`` is due at
    ``now + k`` for the producer's latency ``k``, and ticks execute in
    time order, so producers sharing one ``k`` only ever append; a
    shorter-latency push lands before the longer-latency entries already
    queued (a sink's one-cycle ejection credit behind a router's
    three-cycle credit return).  A clock loop drains it inline: while
    ``queue and queue[0][0] <= now``, ``queue.popleft()``.
    """

    __slots__ = ()

    def push(self, due: float, item: _T) -> None:
        """Queue ``item`` due at ``due``, after every entry due by then."""
        if self and due < self[-1][0]:
            self.insert(bisect_right(self, due, key=_due), (due, item))
        else:
            self.append((due, item))


class CycleDriver:
    """Fires ``tick(time)`` at armed times, after same-time kernel events.

    The driver is *demand-clocked*: it only ticks at times that were
    explicitly armed — by the owning engine when external events (packet
    arrivals, relays) wake a parked component, or by the previous tick
    when components remain active.  Each armed time produces exactly one
    tick; re-arming an already-armed time is a no-op, so wake-up paths
    never need to know whether the clock is already running.
    """

    __slots__ = ("sim", "tick", "_armed")

    def __init__(self, sim: "Simulator", tick: Callable[[float], None]) -> None:
        self.sim = sim
        #: The per-cycle callback; receives the tick's simulation time.
        self.tick = tick
        self._armed: set[float] = set()

    def arm(self, time: float) -> None:
        """Request a tick at absolute ``time`` (coalesced, >= now)."""
        armed = self._armed
        if time in armed:
            return
        sim = self.sim
        delay = time - sim.now
        if delay < 0:
            raise SchedulingError(
                f"cannot arm a tick at {time} < now={sim.now}"
            )
        armed.add(time)
        sim.schedule_late(delay, self._fire, time)

    def _fire(self, time: float) -> None:
        self._armed.discard(time)
        self.tick(time)
