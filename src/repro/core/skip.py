"""Event-horizon bookkeeping for the batch engine's time-skipping loop.

:class:`~repro.core.batch.BatchEngine` advances a slab of runs on one
shared integer cycle grid.  At the low-load end of the paper's sweep —
exactly where the DPM/Lock-Step savings the paper cares about live —
most grid cycles execute no event at all: no injection arrives, no ring
slot holds a port-exit/service-end, no Lock-Step boundary or pending
control-plane apply or drain check falls on the cycle, and no parked
sender can possibly be admitted.  Such a cycle is an exact no-op on the
engine state (the energy and queue-occupancy integrals are lazy, and the
receive side is reduced from a log — see :mod:`repro.core.reduce`), so
the loop may jump straight to the next cycle that can observably do
something without changing a single result bit.

This module holds the two pieces of that machinery that are independent
of the engine's array layout:

* :func:`next_event_time` — the next-event computation: a min over
  the occupied ring slots (the top of a heap of their absolute cycles,
  kept by the engine alongside its per-slot occupancy counters), the
  next nonempty injection cycle (the engine's cursor into a compressed
  index over the precomputed injection CSR), the next Lock-Step window
  boundary and earliest pending ``_pend_dpm``/``_pend_dbr`` apply, and
  the drain-check grid.  The one blocked-sender stop — a popped pair
  with parked senders retries on the very next cycle — is checked
  inline by the loop before it calls here.
* :class:`BatchTelemetry` — per-slab counters (cycles executed/skipped,
  events per phase) surfaced through ``erapid profile --engine batch``,
  shard reports, and the ledger's ``core.batch.*`` counters.

Both are covered by the same linter/layering scope as the engine itself
(``MODULE_LAYERS['repro.core.skip']``, SIM007's vectorized-engine scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import Dict, List, Optional, Sequence

__all__ = [
    "BatchTelemetry",
    "next_event_time",
]


@dataclass(slots=True)
class BatchTelemetry:
    """Per-slab activity counters for one :meth:`BatchEngine.run_payload`.

    ``cycles_executed + cycles_skipped == horizon`` whenever the slab ran
    to its hard end; a slab that drained early stops short of the horizon
    (the remaining cycles are neither executed nor skipped).  The event
    counters are phase totals across all runs in the slab, so they are
    layout-dependent diagnostics — never part of the result payload,
    which stays bit-identical across skip modes and shard layouts.

    ``deliveries`` (optical arrivals at receive ports) and
    ``recv_completions`` are counted when the receive log is reduced, not
    on the cycle they happen; their totals are those of a per-cycle
    receive phase.  ``blocked_retries`` counts the parked senders actually
    retried (those of a pair popped on the previous executed cycle), not
    every blocked sender on every cycle.  ``dispatch_candidates`` counts
    the channel ids handed to the dispatch phase, duplicates included:
    service ends, fresh grants and the parked channels of pushed pairs.
    """

    horizon: int = 0
    cycles_executed: int = 0
    cycles_skipped: int = 0
    injections: int = 0
    deliveries: int = 0
    port_exits: int = 0
    dispatches: int = 0
    dispatch_candidates: int = 0
    recv_completions: int = 0
    blocked_retries: int = 0
    window_boundaries: int = 0
    drain_checks: int = 0
    compactions: int = 0

    @property
    def skip_ratio(self) -> float:
        """Fraction of visited grid cycles that were skipped."""
        total = self.cycles_executed + self.cycles_skipped
        return self.cycles_skipped / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "horizon": self.horizon,
            "cycles_executed": self.cycles_executed,
            "cycles_skipped": self.cycles_skipped,
            "skip_ratio": self.skip_ratio,
            "injections": self.injections,
            "deliveries": self.deliveries,
            "port_exits": self.port_exits,
            "dispatches": self.dispatches,
            "dispatch_candidates": self.dispatch_candidates,
            "recv_completions": self.recv_completions,
            "blocked_retries": self.blocked_retries,
            "window_boundaries": self.window_boundaries,
            "drain_checks": self.drain_checks,
            "compactions": self.compactions,
        }


def next_event_time(
    t: int,
    hard_end: int,
    ring_occ: Sequence[int],
    ring_heap: List[int],
    next_inj: int,
    lockstep: bool,
    window_cycles: int,
    measure_end: int,
    chunk: int,
    pend_min: Optional[int],
) -> int:
    """Earliest cycle after ``t`` at which the batch loop must execute.

    Returns ``t_next`` with ``t < t_next <= hard_end + 1`` (``hard_end +
    1`` terminates the loop).  A cycle is a mandatory stop when any of
    these can fire on it:

    * an occupied ring slot — ``ring_occ[s] > 0`` means slot ``s`` holds
      at least one scheduled port exit (``ring_pexit``) or service end
      (``ring_cend``); deliveries and receive completions are
      logged, never scheduled.  ``ring_heap`` is a min-heap of the
      absolute cycles of occupied slots: the engine pushes a cycle when
      its slot fills and pops it when the loop lands on it, so the heap
      holds no cycle ``<= t``.  A slot emptied by a compaction leaves a
      stale entry, dropped here.  All scheduled times live in ``(t, t +
      ring_len)`` (the coverage gate bounds every lead below the ring
      length), so an occupied slot denotes exactly one absolute cycle
      and a live entry is never aliased.
    * the next nonempty injection cycle, ``next_inj`` (> ``t``; the
      loop keeps it as a cursor, ``hard_end + 1`` once none is left).
    * a Lock-Step window boundary or the earliest pending DPM/DBR apply
      (only when the slab has any power-aware run left).
    * a drain-check grid point ``measure_end + k * chunk`` — mandatory
      even though no packet moves, because *when* a run freezes gates
      which control-plane updates still touch its counters.

    Parked senders are not an input: while no pop occurs a parked
    sender's pair queue stays full, so it cannot be admitted, and after a
    pop the loop steps to ``t + 1`` without calling here.
    """
    t1 = t + 1
    ring_len = len(ring_occ)
    while ring_heap and not ring_occ[ring_heap[0] % ring_len]:
        heappop(ring_heap)
    nxt = next_inj
    if ring_heap and ring_heap[0] < nxt:
        nxt = ring_heap[0]
    if lockstep:
        boundary = (t // window_cycles + 1) * window_cycles
        if boundary < nxt:
            nxt = boundary
        if pend_min is not None and pend_min < nxt:
            nxt = pend_min
    if t1 <= measure_end:
        grid = measure_end
    else:
        grid = measure_end + -((measure_end - t1) // chunk) * chunk
    if grid < nxt:
        nxt = grid
    if nxt > hard_end + 1:
        nxt = hard_end + 1
    return t1 if nxt < t1 else nxt
