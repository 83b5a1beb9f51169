"""The discrete-event simulation kernel.

This is the reproduction's substitute for YACSIM/NETSIM (Jump, Rice
University, 1993): a discrete-event engine.  Time is a monotonically
non-decreasing float (the E-RAPID models use integral router cycles);
events at equal times fire in deterministic ``(priority, FIFO)`` order.

Models drive it three ways: plain callbacks (:meth:`Simulator.schedule`
and its hot-path variants — the fast engine's state machines), generator
processes blocking on waitables (:meth:`Simulator.process` — the coarse
injection, optical and DPM-window loops), and the clocked electrical
substrate, whose :class:`~repro.sim.cycle.CycleDriver` rides the
priority-1 class (:mod:`repro.network.fabric`).  A process example::

    sim = Simulator()

    def producer(sim, store):
        for i in range(3):
            yield sim.timeout(10)
            yield store.put(i)

    store = Store(sim)
    sim.process(producer(sim, store))
    sim.run(until=100)

Hot-path design
---------------
The event heap stores **plain tuples** ``(time, priority, seq, handle,
fn, args)`` so that ``heapq``'s C implementation compares native tuples
directly — the per-comparison tuple construction of an object-heap
``ScheduledEvent.__lt__`` is gone, and ``seq`` is unique so a comparison
never reaches the non-orderable payload slots.  :meth:`Simulator.schedule`
still returns a cancellable :class:`ScheduledEvent` handle, but the
internal hot paths (timeouts, waitable triggers, process start-up) go
through :meth:`Simulator.schedule_fast`, which pushes a handle-less entry
and allocates nothing beyond the tuple itself.

Zero-delay :meth:`Simulator.schedule_late` continuations — the fast
engine's same-instant hops, ~40 % of everything it schedules — skip the
heap: they queue on a FIFO *lane* beside it.  A lane entry is the same
tuple a heap entry would be, ``(now, 1, seq, None, fn, args)``, and the
lane is sorted by construction (one time, one priority, rising ``seq``),
so the dispatch loop runs whichever of the two heads is the smaller
tuple.  A heap entry at ``now`` therefore still runs before the lane
when its priority is 0, or when it is priority 1 with an earlier
``seq``; the ``(time, priority, seq)`` total order, and the event count
(lane pops are events), are exactly those of the single heap.  Every
lane entry is due at ``now``: the clock only advances by popping a heap
entry that beats the lane head, which needs a time no later than
``now``.

Cancelled events are skipped lazily when popped; when cancelled entries
exceed a fraction of the heap (:data:`COMPACT_MIN_CANCELLED` /
:data:`COMPACT_FRACTION`) the heap is compacted in place so a cancel-heavy
model cannot degrade pop cost for the rest of the run.

:meth:`Simulator.run` binds the heap and dispatch state to locals and
carries **zero per-event instrumentation** unless an :attr:`Simulator.
on_event` hook is installed, in which case a separate (slower) dispatch
loop invokes the hook for every executed event.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import ScheduledEvent, Timeout, Waitable
from repro.sim.process import Process
from repro.sim.trace import TraceLog

__all__ = ["Simulator", "KERNEL_VERSION"]

#: Version tag of the kernel's *observable semantics* (event total order,
#: timing model).  Content-addressed run caches include this in their keys:
#: bump it whenever a kernel change could alter simulation results, so
#: stale cached runs are invalidated instead of silently reused.
#: "3": the callback-engine rewrite — :meth:`Simulator.schedule_late`
#: introduces the priority-1 continuation class and the fast engine's
#: executed-event stream (and ``events`` count) changed shape.
KERNEL_VERSION = "3"

#: Compaction triggers only once at least this many cancellations are
#: pending — tiny heaps are cheaper to drain than to rebuild.
COMPACT_MIN_CANCELLED = 64
#: ... and only when cancelled entries exceed this fraction of the heap.
COMPACT_FRACTION = 0.5

#: One heap entry: (time, priority, seq, handle-or-None, fn, args).
_HeapEntry = Tuple[
    float, int, int, Optional[ScheduledEvent], Callable[..., None], Tuple[Any, ...]
]


class Simulator:
    """Event heap + clock.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.trace.TraceLog` the models record
        into; the kernel itself writes no records.
    """

    def __init__(self, trace: Optional[TraceLog] = None) -> None:
        #: Current simulation time.  A plain attribute, not a property:
        #: the callback engines read it several times per event.  Only the
        #: kernel writes it.
        self.now: float = 0.0
        self._heap: List[_HeapEntry] = []
        #: Zero-delay continuations, all due at ``now``, in ``seq`` order.
        self._lane: Deque[_HeapEntry] = deque()
        self._seq = 0
        self._cancelled = 0
        self._running = False
        self._stopped = False
        self.trace = trace
        #: Optional per-event instrumentation hook ``fn(time, fn, args)``;
        #: when None (the default) the dispatch loop takes the fast path.
        self.on_event: Optional[
            Callable[[float, Callable[..., None], Tuple[Any, ...]], None]
        ] = None
        self._event_count = 0

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    @property
    def event_count(self) -> int:
        """Number of events executed so far (for profiling/tests)."""
        return self._event_count

    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if not delay >= 0:  # also refuses NaN
            raise SchedulingError(f"cannot schedule {delay!r} in the past")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = ScheduledEvent(time, fn, args, priority, seq=seq, sim=self)
        heapq.heappush(self._heap, (time, priority, seq, ev, fn, args))
        return ev

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if not time >= self.now:  # also refuses NaN
            raise SchedulingError(
                f"cannot schedule at t={time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = ScheduledEvent(time, fn, args, priority, seq=seq, sim=self)
        heapq.heappush(self._heap, (time, priority, seq, ev, fn, args))
        return ev

    def schedule_fast(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Hot-path scheduling: default priority, no cancellation handle.

        The internal machinery (timeouts, waitable triggers, process
        start-up) schedules millions of events per run and never cancels
        them; this entry point skips the :class:`ScheduledEvent`
        allocation entirely.
        """
        if not delay >= 0:  # also refuses NaN
            raise SchedulingError(f"cannot schedule {delay!r} in the past")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, 0, seq, None, fn, args))

    def schedule_late(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Hot-path scheduling at priority 1 — the *continuation* class.

        Callback state machines (the fast engine) schedule their
        model-mutating continuations through this entry point.  Priority 1
        reproduces the total order of the coroutine formulation they
        replaced: there, every ``yield`` deferred the model mutation into a
        resume event whose FIFO sequence number was assigned *at execution
        time*, so resumes always sorted after every same-time event that
        had been scheduled directly (priority 0 — deliveries, protocol
        stages, traces).  A priority-1 entry keeps that "mutations after
        direct callbacks" invariant while needing only ONE heap event per
        hold instead of the coroutine's fire + resume pair; among
        themselves, priority-1 entries fire in scheduling (FIFO) order,
        matching the old resumes' enablement order.  A zero-delay entry
        goes to the lane instead of the heap (see the module docs).
        """
        if not delay:
            self._seq = seq = self._seq + 1
            self._lane.append((self.now, 1, seq, None, fn, args))
        elif delay > 0:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._heap, (self.now + delay, 1, seq, None, fn, args))
        else:
            raise SchedulingError(f"cannot schedule {delay!r} in the past")

    # ------------------------------------------------------------------
    # Cancellation bookkeeping (called by ScheduledEvent.cancel)
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        self._cancelled = cancelled = self._cancelled + 1
        if (
            cancelled >= COMPACT_MIN_CANCELLED
            and cancelled > len(self._heap) * COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: a running dispatch loop holds a local reference
        to the heap list, so the list object must stay the same.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is None or not e[3].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Waitable factories
    # ------------------------------------------------------------------
    def event(self) -> Waitable:
        """A fresh untriggered waitable (a condition/semaphore seed)."""
        return Waitable(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A waitable that fires ``delay`` from now."""
        return Timeout(self, delay, value)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, generator: Generator[Any, Any, None], name: str = "") -> Process:
        """Register a generator as a concurrent process; starts at ``now``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when nothing is pending (nothing executed).
        """
        heap, lane = self._heap, self._lane
        while heap or lane:
            if lane and (not heap or lane[0] < heap[0]):
                time, _prio, _seq, handle, fn, args = lane.popleft()
            else:
                time, _prio, _seq, handle, fn, args = heapq.heappop(heap)
            if handle is not None and handle.cancelled:
                self._cancelled -= 1
                continue
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event heap yielded an event in the past")
            self.now = time
            self._event_count += 1
            if self.on_event is not None:
                self.on_event(time, fn, args)
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        observe a continuous clock.  Returns the final time.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        try:
            if until is not None and not until >= self.now:  # also NaN
                raise SchedulingError(
                    f"run(until={until}) is before now={self.now}"
                )
            if self.on_event is None:
                self._run_fast(inf if until is None else until)
            else:
                # Instrumented path: step() fires the hook per event.
                while not self._stopped:
                    nxt = self.peek()
                    if nxt is None or (until is not None and nxt > until):
                        break
                    self.step()
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._running = False
        return self.now

    def _run_fast(self, limit: float) -> None:
        """The uninstrumented dispatch loop (hot path).

        Everything touched per event is bound to a local: the heap list,
        the lane, ``heappop``, and the event-count accumulator.
        ``self.now`` is still written through the instance so callbacks
        observe the advancing clock; a lane entry is due at ``now`` and
        carries no handle, so running it touches neither.
        """
        heap = self._heap
        lane = self._lane
        heappop = heapq.heappop
        popleft = lane.popleft
        count = 0
        try:
            while not self._stopped:
                if lane:
                    if not heap or lane[0] < heap[0]:
                        entry = popleft()
                        count += 1
                        entry[4](*entry[5])
                        continue
                elif not heap:
                    break
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                handle = entry[3]
                if handle is not None and handle.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = time
                count += 1
                entry[4](*entry[5])
        finally:
            self._event_count += count

    def stop(self) -> None:
        """Stop a running :meth:`run` after the current event completes."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle."""
        if self._lane:
            return self.now
        heap = self._heap
        while heap:
            handle = heap[0][3]
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pending = len(self._heap) + len(self._lane)
        return f"<Simulator now={self.now} pending={pending}>"
