"""Typed job specifications for the sweep service.

A :class:`JobSpec` is the *complete* declarative description of one unit
of service work — a load sweep (``kind="sweep"``) or a single interactive
run (``kind="run"``).  It is the service's wire format: the spool front
end serializes it to JSON (:meth:`JobSpec.to_dict` /
:meth:`JobSpec.from_dict`), the scheduler expands it into per-run
``(config, workload, plan)`` descriptions, and the artifact manifest
embeds it so any past job is replayable from its manifest alone.

Identity
--------
:meth:`JobSpec.job_key` is a SHA-256 over the canonical work-defining
fields plus :data:`~repro.sim.kernel.KERNEL_VERSION` — the same
invalidation discipline as the run cache.  ``priority`` is *excluded*:
two clients asking for the same work at different priorities must dedupe
onto one execution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.errors import JobSpecError
from repro.metrics.collector import MeasurementPlan
from repro.perf.engines import CACHED, DEFAULT_ENGINE
from repro.perf.executor import RunTask, grid_tasks
from repro.traffic.patterns import PATTERNS

__all__ = [
    "JobSpec",
    "JOB_KINDS",
    "PRIORITIES",
    "SERVICE_FORMAT",
]

#: Bump when the job-spec wire format or key derivation changes.
SERVICE_FORMAT = 1

JOB_KINDS = ("sweep", "run")

#: Priority name -> queue rank (lower runs first).  Interactive jobs
#: (single ``run`` submissions, profile-style probes) overtake bulk
#: sweeps that are still queued.
PRIORITIES: Dict[str, int] = {"interactive": 0, "bulk": 1}

#: Default priority per job kind.
_DEFAULT_PRIORITY = {"sweep": "bulk", "run": "interactive"}


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one service job (picklable, JSON-able)."""

    kind: str = "sweep"
    pattern: str = "uniform"
    loads: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    policies: Tuple[str, ...] = ("NP-NB", "P-NB", "NP-B", "P-B")
    boards: int = 8
    nodes_per_board: int = 8
    seed: int = 1
    warmup: float = 8000.0
    measure: float = 12000.0
    drain_limit: float = 24000.0
    #: "interactive" | "bulk"; empty selects the kind's default.
    priority: str = ""
    #: A cached engine of :data:`repro.perf.engines.ENGINES`: "fast"
    #: (scalar) or "batch" (vectorized slabs with scalar fallback).
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise JobSpecError(f"unknown job kind {self.kind!r}")
        if self.pattern not in PATTERNS:
            raise JobSpecError(f"unknown traffic pattern {self.pattern!r}")
        if not self.loads:
            raise JobSpecError("a job needs at least one load point")
        if not self.policies:
            raise JobSpecError("a job needs at least one policy")
        for p in self.policies:
            if p not in POLICIES:
                raise JobSpecError(f"unknown policy {p!r}")
        for load in self.loads:
            if not 0.0 < float(load) <= 1.0:
                raise JobSpecError(f"load {load!r} outside (0, 1]")
        if len(set(self.loads)) != len(self.loads):
            raise JobSpecError("duplicate load points")
        if len(set(self.policies)) != len(self.policies):
            raise JobSpecError("duplicate policies")
        if self.kind == "run" and (len(self.loads), len(self.policies)) != (1, 1):
            raise JobSpecError(
                "kind='run' is a single simulation: exactly one load and "
                "one policy"
            )
        object.__setattr__(
            self, "loads", tuple(float(x) for x in self.loads)
        )
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.priority:
            object.__setattr__(
                self, "priority", _DEFAULT_PRIORITY[self.kind]
            )
        if self.priority not in PRIORITIES:
            raise JobSpecError(f"unknown priority {self.priority!r}")
        if self.engine not in CACHED:
            raise JobSpecError(f"unknown engine {self.engine!r}")
        # Plan validation happens eagerly so a bad spec is rejected at
        # submission, not mid-execution.
        self.plan()

    # ------------------------------------------------------------------
    # Derived runs
    # ------------------------------------------------------------------
    def plan(self) -> MeasurementPlan:
        try:
            return MeasurementPlan(
                warmup=self.warmup,
                measure=self.measure,
                drain_limit=self.drain_limit,
            )
        except Exception as exc:
            raise JobSpecError(f"bad measurement plan: {exc}") from exc

    def tasks(self) -> List[RunTask]:
        """Every run of this job in :func:`repro.perf.executor.grid_tasks`
        order — the task order of :func:`repro.experiments.sweep.run_sweep`,
        so a job's results are positionally comparable to a direct sweep."""
        from repro.network.topology import ERapidTopology

        base = ERapidConfig(
            topology=ERapidTopology(
                boards=self.boards, nodes_per_board=self.nodes_per_board
            )
        )
        return grid_tasks(
            base, self.pattern, self.policies, self.loads, self.seed,
            self.plan(),
        )

    @property
    def total_runs(self) -> int:
        return len(self.loads) * len(self.policies)

    def priority_rank(self) -> int:
        return PRIORITIES[self.priority]

    # ------------------------------------------------------------------
    # Identity and wire format
    # ------------------------------------------------------------------
    def work_payload(self) -> Dict[str, Any]:
        """Canonical work-defining payload (priority excluded)."""
        from repro.sim.kernel import KERNEL_VERSION

        payload = {
            "service_format": SERVICE_FORMAT,
            "kernel_version": KERNEL_VERSION,
            **self.to_dict(),
        }
        del payload["priority"]
        # Only non-default engines enter the payload so every historical
        # fast-engine job key stays byte-stable.
        if self.engine == DEFAULT_ENGINE:
            del payload["engine"]
        return payload

    def job_key(self) -> str:
        """SHA-256 content address of the job's *work* (not its priority)."""
        payload = json.dumps(
            self.work_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "loads": list(self.loads), "policies": list(self.policies)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Parse a spec dict; raises :class:`JobSpecError` on anything bad."""
        if not isinstance(data, Mapping):
            raise JobSpecError(f"job spec must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobSpecError(f"unknown job spec fields: {', '.join(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        for seq_field in ("loads", "policies"):
            if seq_field in kwargs:
                value = kwargs[seq_field]
                if not isinstance(value, (list, tuple)):
                    raise JobSpecError(f"{seq_field} must be a list")
                kwargs[seq_field] = tuple(value)
        try:
            return cls(**kwargs)
        except JobSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"bad job spec: {exc}") from exc
