"""Determinism auditor — a race detector for the event kernel.

The reproduction's figures are diffs between seeded runs, so any hidden
nondeterminism (dict/set iteration order, ``id()``-keyed containers, global
RNG state, wall-clock leakage) silently corrupts every result.  The auditor
exercises **both engines** — the abstract :class:`FastEngine` on a small
16-node experiment and the cycle-synchronous flit-level
:class:`DetailedEngine` on a 4-node platform — two ways each:

1. twice under the same seed with the default event-insertion order — the
   two runs must produce *bit-identical* trace streams and metric
   summaries; and
2. twice under the same seed with a **permuted event-insertion order**
   (process registration and channel start-up order are deterministically
   shuffled) — the permuted schedule must itself be bit-repeatable.

Run 2 is the race detector: a simulation whose behaviour is a pure function
of the kernel's ``(time, priority, FIFO)`` total order repeats exactly even
when same-time events were *inserted* in a different order, while code that
leans on incidental iteration order diverges.

The comparison is a SHA-256 digest over the canonicalized trace stream plus
the metric summary, with a first-divergence diff for humans.

The vectorized :class:`BatchEngine` has no event order to permute; what
it must not leak is *slab* order.  Its check runs one slab and a fixed
permutation of it, and every run must fingerprint the same in both: a
phase that lets one run's state or position steer another's shows here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.core.batch import BatchEngine
from repro.core.config import ControlParams, ERapidConfig
from repro.core.detailed import DetailedEngine
from repro.core.engine import FastEngine
from repro.core.policies import make_policy
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.network.topology import ERapidTopology
from repro.sim.trace import TraceLog
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "RunFingerprint",
    "AuditCheck",
    "AuditReport",
    "audit",
    "simulate_fingerprint",
    "simulate_detailed_fingerprint",
    "batch_slab_fingerprints",
    "sweep_fingerprint",
    "fingerprint_parts",
    "check_repeatable",
    "check_slab_order",
    "compare_fingerprints",
]

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class RunFingerprint:
    """Canonical, comparable record of one simulation run."""

    digest: str
    metrics: Tuple[Tuple[str, str], ...]
    trace_lines: Tuple[str, ...]

    @property
    def metric_dict(self) -> Dict[str, str]:
        return dict(self.metrics)


@dataclass(frozen=True, slots=True)
class AuditCheck:
    """One pass/fail determinism check."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True, slots=True)
class AuditReport:
    """All checks from one auditor invocation."""

    checks: Tuple[AuditCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.detail}")
        verdict = "deterministic" if self.ok else "NONDETERMINISM DETECTED"
        lines.append(f"determinism audit: {verdict}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def fingerprint_parts(
    trace_lines: Sequence[str],
    metrics: Dict[str, object],
) -> RunFingerprint:
    """Build a fingerprint from raw parts (also used by toy-kernel tests)."""
    canon_metrics = tuple(
        sorted((k, repr(v)) for k, v in metrics.items())
    )
    payload = json.dumps(
        {"metrics": canon_metrics, "trace": list(trace_lines)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return RunFingerprint(
        digest=digest,
        metrics=canon_metrics,
        trace_lines=tuple(trace_lines),
    )


def _permuted(seq: Sequence[_T]) -> List[_T]:
    """A fixed, seed-free derangement-ish permutation of ``seq``."""
    n = len(seq)
    if n < 2:
        return list(seq)
    stride = 7919  # prime; the index map is bijective when gcd(stride, n) == 1
    if _gcd(stride, n) != 1:
        return list(reversed(seq))
    return [seq[(i * stride + 1) % n] for i in range(n)]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


#: The ``RunResult`` fields both engines' fingerprints cover.
_RESULT_FIELDS = (
    "throughput", "offered", "avg_latency", "p99_latency", "max_latency",
    "power_mw", "labeled_injected", "labeled_delivered", "delivered_measure",
)


def _audit_setup(
    seed: int, boards: int, nodes_per_board: int, load: float, pattern: str, policy: str
) -> Tuple[ERapidConfig, WorkloadSpec]:
    """The audit run's config and workload, the same for both engines."""
    config = ERapidConfig(
        topology=ERapidTopology(boards=boards, nodes_per_board=nodes_per_board),
        policy=make_policy(policy),
        control=ControlParams(window_cycles=500),
        seed=seed,
    )
    return config, WorkloadSpec(pattern=pattern, load=load, seed=seed)


def _summary(
    engine: Union[FastEngine, DetailedEngine], result: RunResult, **own: object
) -> Dict[str, object]:
    """The metric summary both engines fingerprint, plus the engine's ``own``."""
    metrics: Dict[str, object] = {k: getattr(result, k) for k in _RESULT_FIELDS}
    metrics["final_time"] = engine.sim.now
    metrics["event_count"] = engine.sim.event_count
    metrics.update(own)
    for k, v in sorted(result.extra.items()):
        metrics[f"extra.{k}"] = v
    return metrics


def simulate_fingerprint(
    seed: int = 1,
    boards: int = 4,
    nodes_per_board: int = 4,
    load: float = 0.4,
    pattern: str = "uniform",
    policy: str = "P-B",
    permuted: bool = False,
) -> RunFingerprint:
    """Run the small audit experiment once and fingerprint it.

    ``permuted=True`` registers node processes and optical-channel
    processes in a deterministically shuffled order, changing the FIFO
    sequence numbers of all same-time start-up events.
    """
    config, workload = _audit_setup(seed, boards, nodes_per_board, load, pattern, policy)
    plan = MeasurementPlan(warmup=500.0, measure=1500.0, drain_limit=3000.0)
    trace = TraceLog(max_records=200_000)
    engine = FastEngine(config, workload, plan, trace=trace)
    if permuted:
        engine.start(
            node_order=_permuted(list(range(config.topology.total_nodes))),
            channel_order=_permuted(sorted(engine.channels)),
        )
    else:
        engine.start()
    result = engine.run()
    trace_lines = [rec.format() for rec in trace.records]
    return fingerprint_parts(trace_lines, _summary(engine, result))


def simulate_detailed_fingerprint(
    seed: int = 1,
    boards: int = 2,
    nodes_per_board: int = 2,
    load: float = 0.3,
    pattern: str = "uniform",
    policy: str = "P-NB",
    permuted: bool = False,
) -> RunFingerprint:
    """Run the cycle-synchronous detailed engine once and fingerprint it.

    The detailed engine has no trace stream, so the fingerprint covers the
    full metric summary plus per-router flit counts, the final simulated
    time, and the executed-event count — enough to expose any iteration-
    order or RNG-order sensitivity in the flit path.

    ``permuted=True`` registers injector processes and optical-channel
    processes in a deterministically shuffled order, changing the FIFO
    sequence numbers of all same-time start-up events.
    """
    config, workload = _audit_setup(seed, boards, nodes_per_board, load, pattern, policy)
    plan = MeasurementPlan(warmup=300.0, measure=900.0, drain_limit=1800.0)
    engine = DetailedEngine(config, workload, plan)
    if permuted:
        engine.start(
            node_order=_permuted(list(range(config.topology.total_nodes))),
            optical_order=_permuted(
                sorted(
                    key
                    for key in engine.tx_queues
                    if engine.rwa.dest_served_by(*key) != key[0]
                )
            ),
        )
    else:
        engine.start()
    result = engine.run()
    flits_routed = tuple(r.flits_routed for r in engine.routers)
    return fingerprint_parts((), _summary(engine, result, flits_routed=flits_routed))


#: The audit slab's ``(pattern, load)`` points, each under all four
#: policies: light, saturated (parked senders) and mid load.
_BATCH_POINTS = (("uniform", 0.3), ("complement", 0.9), ("butterfly", 0.6))
_BATCH_POLICIES = ("NP-NB", "P-NB", "NP-B", "P-B")


def batch_slab_fingerprints(
    seed: int = 1,
    boards: int = 4,
    nodes_per_board: int = 4,
    permuted: bool = False,
) -> List[RunFingerprint]:
    """Run the batch audit slab once; one fingerprint per run, in the
    order of the unpermuted slab.

    ``permuted=True`` hands the engine the same runs in the fixed
    :func:`_permuted` order, so every run sits at another slab position
    among other neighbours.
    """
    topology = ERapidTopology(boards=boards, nodes_per_board=nodes_per_board)
    plan = MeasurementPlan(warmup=500.0, measure=1500.0, drain_limit=3000.0)
    runs = [
        (
            ERapidConfig(topology=topology, policy=make_policy(policy), seed=seed),
            WorkloadSpec(pattern=pattern, load=load, seed=seed),
            plan,
        )
        for pattern, load in _BATCH_POINTS
        for policy in _BATCH_POLICIES
    ]
    order = _permuted(list(range(len(runs)))) if permuted else list(range(len(runs)))
    results = BatchEngine([runs[i] for i in order]).run()
    by_run: Dict[int, RunResult] = dict(zip(order, results))
    return [
        fingerprint_parts((), _batch_summary(by_run[i])) for i in range(len(runs))
    ]


def _batch_summary(result: RunResult) -> Dict[str, object]:
    metrics: Dict[str, object] = {k: getattr(result, k) for k in _RESULT_FIELDS}
    for k, v in sorted(result.extra.items()):
        metrics[f"extra.{k}"] = v
    return metrics


def sweep_fingerprint(results: Dict[str, List[RunResult]]) -> str:
    """SHA-256 over a ``{policy: [RunResult, ...]}`` sweep outcome.

    The digest covers every scalar metric and ``extra`` entry of every
    run via the exact (repr-based) :meth:`RunResult.to_dict` encoding, so
    two sweeps fingerprint equal iff they are bit-identical.  Used to
    assert that parallel (``jobs=N``) and cached sweep execution
    reproduce serial output exactly.
    """
    payload = json.dumps(
        {
            policy: [r.to_dict() for r in runs]
            for policy, runs in sorted(results.items())
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Comparison and checks
# ----------------------------------------------------------------------
def compare_fingerprints(a: RunFingerprint, b: RunFingerprint) -> Optional[str]:
    """``None`` when identical, else a first-divergence description."""
    if a.digest == b.digest:
        return None
    am, bm = a.metric_dict, b.metric_dict
    for key in sorted(set(am) | set(bm)):
        if am.get(key) != bm.get(key):
            return f"metric {key!r} diverged: {am.get(key)} != {bm.get(key)}"
    for i, (la, lb) in enumerate(zip(a.trace_lines, b.trace_lines)):
        if la != lb:
            return f"trace line {i} diverged:\n  run A: {la}\n  run B: {lb}"
    if len(a.trace_lines) != len(b.trace_lines):
        return (
            f"trace length diverged: {len(a.trace_lines)} != "
            f"{len(b.trace_lines)} records"
        )
    return "digests differ but no field-level divergence found"


def check_repeatable(
    name: str,
    make_fingerprint: Callable[[], RunFingerprint],
    runs: int = 2,
) -> AuditCheck:
    """Run ``make_fingerprint`` ``runs`` times; all must be identical."""
    first = make_fingerprint()
    for i in range(1, runs):
        other = make_fingerprint()
        diff = compare_fingerprints(first, other)
        if diff is not None:
            return AuditCheck(
                name=name,
                ok=False,
                detail=f"run 0 vs run {i}: {diff}",
            )
    return AuditCheck(
        name=name,
        ok=True,
        detail=f"{runs} runs bit-identical (sha256 {first.digest[:12]}…, "
        f"{len(first.trace_lines)} trace records)",
    )


def check_slab_order(
    name: str,
    make_fingerprints: Callable[[bool], List[RunFingerprint]],
) -> AuditCheck:
    """Every run must fingerprint the same in a slab and in its
    permutation (``make_fingerprints(permuted)``)."""
    plain = make_fingerprints(False)
    shuffled = make_fingerprints(True)
    for i, (a, b) in enumerate(zip(plain, shuffled)):
        diff = compare_fingerprints(a, b)
        if diff is not None:
            return AuditCheck(
                name=name, ok=False, detail=f"run {i} of {len(plain)}: {diff}"
            )
    digest = hashlib.sha256(
        "".join(f.digest for f in plain).encode("ascii")
    ).hexdigest()
    return AuditCheck(
        name=name,
        ok=True,
        detail=f"{len(plain)} runs bit-identical in both slab orders "
        f"(sha256 {digest[:12]}…)",
    )


def audit(
    seed: int = 1,
    boards: int = 4,
    nodes_per_board: int = 4,
    detailed_boards: int = 2,
    detailed_nodes_per_board: int = 2,
    include_detailed: bool = True,
) -> AuditReport:
    """Full determinism audit across the three engines.

    The abstract FastEngine and the batch slab run the 16-node default;
    the flit-level detailed engine runs a smaller 4-node platform (its
    process-per-NI model is ~100x slower per simulated cycle).
    ``include_detailed=False`` restores the fast-only audit for quick
    local iteration.
    """
    checks: List[AuditCheck] = [
        check_repeatable(
            "fast engine: same-seed repeatability (default event-insertion order)",
            lambda: simulate_fingerprint(
                seed=seed, boards=boards, nodes_per_board=nodes_per_board
            ),
        ),
        check_repeatable(
            "fast engine: same-seed repeatability (permuted event-insertion order)",
            lambda: simulate_fingerprint(
                seed=seed,
                boards=boards,
                nodes_per_board=nodes_per_board,
                permuted=True,
            ),
        ),
    ]
    if include_detailed:
        checks.extend(
            (
                check_slab_order(
                    "batch engine: per-run results independent of slab order "
                    "(permuted slab)",
                    lambda permuted: batch_slab_fingerprints(
                        seed=seed,
                        boards=boards,
                        nodes_per_board=nodes_per_board,
                        permuted=permuted,
                    ),
                ),
                check_repeatable(
                    "detailed engine: same-seed repeatability "
                    "(default process-registration order)",
                    lambda: simulate_detailed_fingerprint(
                        seed=seed,
                        boards=detailed_boards,
                        nodes_per_board=detailed_nodes_per_board,
                    ),
                ),
                check_repeatable(
                    "detailed engine: same-seed repeatability "
                    "(permuted process-registration order)",
                    lambda: simulate_detailed_fingerprint(
                        seed=seed,
                        boards=detailed_boards,
                        nodes_per_board=detailed_nodes_per_board,
                        permuted=True,
                    ),
                ),
            )
        )
    return AuditReport(checks=tuple(checks))
