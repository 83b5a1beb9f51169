"""Shard planning for parallel batch-tier sweep execution.

PR 8's batch engine advanced every slab sequentially in the parent
process, so ``--engine batch --jobs N`` could only parallelize the scalar
*fallback* — the fastest tier was the one tier that could not use the
machine's cores.  This module fixes the planning half of that: it splits
every covered slab into per-worker **shards** (sub-slabs) and lays them
out next to the scalar-fallback indices as one unified work queue for
the one scheduling loop of :mod:`repro.perf.executor`.

Sharding is sound because every run's state rows in a
:class:`~repro.core.batch.BatchEngine` slab are independent —
partitioning is purely a throughput concern, never a semantics one — so a
shard layout can change wall-clock time but not a single result bit
(``tests/service/test_batch_jobs.py`` pins equal fingerprints across
layouts).

Shard-size heuristic (:func:`effective_shard_size`), the only source of
the shard size:

* ``jobs == 1`` → :data:`SLAB_CAP`.  There is no pool to feed, so the
  only cost that matters is per-shard state construction — make shards
  as wide as the engine allows.
* ``jobs > 1`` → ``ceil(covered / (jobs * OVERSUBSCRIBE))`` clamped to
  ``[MIN_SHARD, SLAB_CAP]``.  Oversubscribing by
  :data:`OVERSUBSCRIBE` shards per worker keeps the queue deep enough
  that a worker finishing early — or one tied up by a scalar-fallback
  straggler — immediately picks up remaining batch work instead of
  idling at the tail; :data:`MIN_SHARD` keeps the per-shard
  struct-of-arrays setup amortized over enough runs to stay noise.

Tests that need a particular layout monkeypatch :data:`SLAB_CAP` and
:data:`MIN_SHARD`.  Shards never cross slab boundaries (a
:class:`~repro.core.batch.BatchEngine` holds exactly one slab), and
within a slab the indices keep task order, so the plan is a pure
deterministic function of ``(tasks, jobs)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SLAB_CAP",
    "MIN_SHARD",
    "OVERSUBSCRIBE",
    "ShardSpec",
    "ShardReport",
    "ShardPlan",
    "effective_shard_size",
    "plan_shards",
]

#: Run points per :class:`~repro.core.batch.BatchEngine` slab.  Bounds the
#: struct-of-arrays working set (state is O(runs x wavelengths x boards^2))
#: while keeping slabs wide enough to amortize the per-cycle numpy
#: dispatch overhead.
SLAB_CAP = 256

#: Smallest batch shard the heuristic will cut.  Below this the per-shard
#: BatchEngine state construction (CSR injection schedules, per-channel
#: arrays) stops amortizing and sharding costs more than it wins.  The
#: event-horizon skipping loop and frozen-run compaction cut the fixed
#: per-cycle overhead a narrow shard used to pay, so the floor dropped
#: from 8 to 4 — thinner shards now parallelize further without losing
#: their amortization.
MIN_SHARD = 4

#: Target batch shards per pool worker.  >1 so the unified queue stays
#: deep enough for work stealing around scalar-fallback stragglers.
OVERSUBSCRIBE = 2


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One schedulable unit of a sharded sweep.

    ``kind == "batch"`` shards carry the task indices of one sub-slab;
    the single ``kind == "scalar"`` shard (when present) carries every
    fallback index — those still execute as individual pool tasks, the
    spec just groups them for planning and reporting.
    """

    shard_id: int
    kind: str
    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("batch", "scalar"):
            raise ValueError(f"unknown shard kind {self.kind!r}")

    @property
    def runs(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, slots=True)
class ShardReport:
    """Observed outcome of one shard (timings for the job manifest).

    ``seconds`` is worker-measured wall time for ``kind="batch"``, and
    parent-side elapsed time (start of execution to last completion) for
    the aggregate ``kind="scalar"`` report.  ``payload_bytes`` is the
    struct-of-arrays transport volume (0 for scalar shards).  A batch
    shard that raised is reported with ``kind="fallback"``: its indices
    were re-routed to the scalar pool and ``error`` says why.
    ``telemetry`` is the slab's :class:`~repro.core.skip.BatchTelemetry`
    counters as a plain dict (batch shards only) — diagnostics, never
    part of the result payload.
    """

    shard_id: int
    kind: str
    runs: int
    seconds: float
    payload_bytes: int = 0
    error: Optional[str] = None
    telemetry: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "runs": self.runs,
            "seconds": self.seconds,
            "payload_bytes": self.payload_bytes,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The deterministic shard layout for one task sequence."""

    jobs: int
    shard_size: int
    shards: Tuple[ShardSpec, ...]

    @property
    def batch_shards(self) -> Tuple[ShardSpec, ...]:
        return tuple(s for s in self.shards if s.kind == "batch")

    @property
    def scalar_indices(self) -> Tuple[int, ...]:
        for s in self.shards:
            if s.kind == "scalar":
                return s.indices
        return ()

    @property
    def covered_runs(self) -> int:
        return sum(s.runs for s in self.batch_shards)

    def describe(self) -> str:
        """One-line human summary (the CLI's verbose shard-plan output)."""
        batch = self.batch_shards
        scalar = len(self.scalar_indices)
        return (
            f"shard plan: {self.covered_runs} covered runs in {len(batch)} "
            f"batch shard(s) of <= {self.shard_size} runs + "
            f"{scalar} scalar fallback run(s) on jobs={self.jobs}"
        )


def effective_shard_size(covered: int, jobs: int) -> int:
    """Target runs per batch shard (see the module heuristic notes)."""
    if jobs <= 1 or covered == 0:
        return SLAB_CAP
    target = math.ceil(covered / (jobs * OVERSUBSCRIBE))
    return max(MIN_SHARD, min(SLAB_CAP, target))


def plan_shards(tasks: Sequence[object], jobs: int = 1) -> ShardPlan:
    """Partition ``tasks`` into batch shards plus a scalar-fallback shard.

    ``tasks`` is a sequence of :class:`~repro.perf.executor.RunTask`;
    coverage and slab membership come from :mod:`repro.core.batch`.  Batch
    shards are numbered in (slab, chunk) order; the scalar shard, when
    non-empty, always carries the next id after the last batch shard.
    """
    from repro.core.batch import coverage_gap, slab_key

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    #: slab key -> task indices, in task order (dict preserves insertion
    #: order, so slab composition is deterministic in the task sequence).
    slabs: Dict[Tuple[object, ...], List[int]] = {}
    scalar_indices: List[int] = []
    for i, task in enumerate(tasks):
        if coverage_gap(task.config, task.workload, task.plan) is None:  # type: ignore[attr-defined]
            key = slab_key(task.config, task.workload, task.plan)  # type: ignore[attr-defined]
            slabs.setdefault(key, []).append(i)
        else:
            scalar_indices.append(i)

    covered = sum(len(v) for v in slabs.values())  # sim-lint: ignore[SIM007]
    size = effective_shard_size(covered, jobs)
    shards: List[ShardSpec] = []
    # Slab order is immaterial: each run's result depends only on its own
    # (config, workload, plan) row and lands in its own results slot.
    for indices in slabs.values():  # sim-lint: ignore[SIM007]
        for lo in range(0, len(indices), size):
            shards.append(
                ShardSpec(
                    shard_id=len(shards),
                    kind="batch",
                    indices=tuple(indices[lo : lo + size]),
                )
            )
    if scalar_indices:
        shards.append(
            ShardSpec(
                shard_id=len(shards),
                kind="scalar",
                indices=tuple(scalar_indices),
            )
        )
    return ShardPlan(jobs=jobs, shard_size=size, shards=tuple(shards))
