"""Statistical-equivalence harness: batch engine vs. scalar reference.

The vectorized :class:`~repro.core.batch.BatchEngine` consumes RNG streams
chunked, rounds service completions onto the integer cycle grid, and
measures labeled latency through a FIFO proxy — so except for the
bit-identical subset (permutation-pattern injection counts), its results
can only be *statistically* equivalent to :class:`~repro.core.engine.
FastEngine`.  This module is where that equivalence is declared, measured
and gated:

* :data:`DEFAULT_TOLERANCES` is the declared contract — one
  :class:`ToleranceSpec` per metric, each an absolute floor plus a
  relative band around the scalar reference.  The latency tolerance is
  wide (the FIFO proxy diverges near saturation) and applies only to runs
  the reference actually drained; throughput and power are tight.
* :func:`compare_runs` evaluates a candidate result list against a
  reference list pairwise and returns an :class:`EquivalenceReport` with
  the worst deviation per metric, every out-of-tolerance pair, and a
  :class:`MetricExclusion` for every (run, metric) pair a ``drained_only``
  tolerance skipped — no run leaves the check without a recorded reason.
* :func:`bit_identity_fingerprint` hashes the stream-identical fields so
  the bit-identical subset is asserted exactly, not approximately.

``tests/test_core_batch.py`` gates the batch engine on ``report.ok``
against the scalar engine; the harness's own failure modes are pinned by
``tests/analysis/test_equivalence.py``, which perturbs each metric past
its tolerance and requires the gate to trip.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.metrics.collector import RunResult

__all__ = [
    "ToleranceSpec",
    "DEFAULT_TOLERANCES",
    "MetricDeviation",
    "MetricExclusion",
    "EquivalenceReport",
    "compare_runs",
    "bit_identity_fingerprint",
]


@dataclass(frozen=True, slots=True)
class ToleranceSpec:
    """Declared tolerance for one RunResult metric.

    A candidate value ``c`` is equivalent to a reference value ``r`` when
    ``|c - r| <= abs_tol + rel_tol * |r|``.  ``drained_only`` restricts
    the check to runs whose reference delivered every labeled packet —
    metrics that are undefined or proxy-skewed at saturation opt in.
    """

    metric: str
    rel_tol: float
    abs_tol: float
    drained_only: bool = False

    def limit(self, reference: float) -> float:
        return self.abs_tol + self.rel_tol * abs(reference)


#: The declared batch-vs-fast contract.  Calibrated against measured
#: worst-case deviations on mixed uniform/permutation grids (throughput
#: <=4.4% rel, power <=9.2% rel, latency <=21% rel on drained runs), with
#: headroom so seed-to-seed variation doesn't flake the gate while real
#: kernel regressions still trip it.
DEFAULT_TOLERANCES: Tuple[ToleranceSpec, ...] = (
    ToleranceSpec("throughput", rel_tol=0.08, abs_tol=0.0008),
    ToleranceSpec("avg_latency", rel_tol=0.40, abs_tol=30.0, drained_only=True),
    ToleranceSpec("power_mw", rel_tol=0.15, abs_tol=0.5),
)


@dataclass(frozen=True, slots=True)
class MetricDeviation:
    """One (run, metric) comparison against its declared tolerance."""

    metric: str
    index: int
    reference: float
    candidate: float
    deviation: float
    limit: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.limit

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "index": self.index,
            "reference": self.reference,
            "candidate": self.candidate,
            "deviation": self.deviation,
            "limit": self.limit,
            "ok": self.ok,
        }


@dataclass(frozen=True, slots=True)
class MetricExclusion:
    """Why one (run, metric) pair was left out of tolerance checking.

    Every skipped pair carries one of these, so an unchecked run is an
    auditable decision, never a silent blind spot: ``checked[metric] +
    len(excluded for metric) == total`` for every declared metric.
    """

    metric: str
    index: int
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "index": self.index,
            "reason": self.reason,
        }


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Outcome of one candidate-vs-reference comparison."""

    total: int
    #: metric -> number of run pairs actually checked (drained_only
    #: metrics skip saturated references).
    checked: Dict[str, int]
    #: metric -> the pair with the largest deviation/limit ratio.
    worst: Dict[str, MetricDeviation]
    failures: Tuple[MetricDeviation, ...]
    #: one entry per (run, metric) pair skipped, with its reason.
    excluded: Tuple[MetricExclusion, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "total": self.total,
            "checked": dict(self.checked),
            "worst": {m: d.to_dict() for m, d in sorted(self.worst.items())},
            "failures": [d.to_dict() for d in self.failures],
            "excluded": [e.to_dict() for e in self.excluded],
        }


def _drained(result: RunResult) -> bool:
    return (
        result.labeled_injected > 0
        and result.labeled_delivered == result.labeled_injected
    )


def compare_runs(
    reference: Sequence[RunResult],
    candidate: Sequence[RunResult],
    tolerances: Sequence[ToleranceSpec] = DEFAULT_TOLERANCES,
) -> EquivalenceReport:
    """Check ``candidate[i]`` against ``reference[i]`` for every tolerance.

    The sequences must align positionally (same grid, same order) — the
    harness compares run points, it does not match them up.
    """
    if len(reference) != len(candidate):
        raise ValueError(
            f"reference has {len(reference)} runs, candidate {len(candidate)}; "
            "the grids must align positionally"
        )
    checked: Dict[str, int] = {t.metric: 0 for t in tolerances}
    worst: Dict[str, MetricDeviation] = {}
    failures: List[MetricDeviation] = []
    excluded: List[MetricExclusion] = []
    for i, (ref, cand) in enumerate(zip(reference, candidate)):
        for tol in tolerances:
            if tol.drained_only and not _drained(ref):
                if ref.labeled_injected <= 0:
                    reason = (
                        "reference injected no labeled packets in the "
                        "measurement window"
                    )
                else:
                    reason = (
                        "reference undrained at drain_limit "
                        f"({ref.labeled_delivered}/{ref.labeled_injected} "
                        "labeled packets delivered)"
                    )
                excluded.append(
                    MetricExclusion(metric=tol.metric, index=i, reason=reason)
                )
                continue
            r = float(getattr(ref, tol.metric))
            c = float(getattr(cand, tol.metric))
            dev = MetricDeviation(
                metric=tol.metric,
                index=i,
                reference=r,
                candidate=c,
                deviation=abs(c - r),
                limit=tol.limit(r),
            )
            checked[tol.metric] += 1
            prev = worst.get(tol.metric)
            if prev is None or (
                dev.deviation * prev.limit > prev.deviation * dev.limit
            ):
                worst[tol.metric] = dev
            if not dev.ok:
                failures.append(dev)
    return EquivalenceReport(
        total=len(reference),
        checked=checked,
        worst=worst,
        failures=tuple(failures),
        excluded=tuple(excluded),
    )


def bit_identity_fingerprint(
    results: Sequence[RunResult],
    fields: Sequence[str] = ("offered", "labeled_injected"),
) -> str:
    """SHA-256 over the stream-identical fields of ``results``.

    For permutation patterns the batch engine's vectorized gap draws
    consume the PCG64 streams exactly like the scalar path, so injection-
    side quantities must match bit for bit — repr round-trips floats
    exactly, making this fingerprint an equality witness, not a hash of
    approximations.
    """
    digest = hashlib.sha256()
    for result in results:
        for name in fields:
            digest.update(name.encode("utf-8"))
            digest.update(b"=")
            digest.update(repr(getattr(result, name)).encode("utf-8"))
            digest.update(b";")
        digest.update(b"|")
    return digest.hexdigest()
