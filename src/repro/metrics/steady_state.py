"""Steady-state output analysis.

§4: "The simulator was warmed up under load without taking measurements
until steady state was reached."  This module supplies the statistical
tooling to make that rigorous:

* :func:`batch_means` — split a within-run sample stream into batches and
  form a confidence interval that respects autocorrelation (the classic
  batch-means method);
* :func:`mser_truncation` — the MSER-5 warm-up truncation heuristic, for
  choosing how much of a run to discard;
* :class:`ReplicationSummary` — across-run (independent seeds) mean ± CI
  for every :class:`~repro.metrics.collector.RunResult` metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import MeasurementError
from repro.metrics.collector import RunResult

__all__ = ["batch_means", "mser_truncation", "ReplicationSummary", "replicate"]


def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value.

    The one place scipy is needed; imported here so that importing the
    engines (which re-export this package) stays numpy-only.
    """
    try:
        from scipy import stats
    except ImportError as exc:
        raise MeasurementError(
            "confidence intervals need scipy (pip install repro[stats])"
        ) from exc
    return float(stats.t.ppf(0.5 + confidence / 2.0, df=df))


def batch_means(
    samples: Sequence[float], n_batches: int = 10, confidence: float = 0.95
) -> Tuple[float, float]:
    """(mean, CI half-width) via non-overlapping batch means.

    Consecutive within-run observations (e.g. per-window power readings)
    are autocorrelated; batching restores approximate independence so the
    Student-t interval is honest.
    """
    if n_batches < 2:
        raise MeasurementError(f"need >= 2 batches, got {n_batches}")
    if len(samples) < 2 * n_batches:
        raise MeasurementError(
            f"need >= {2 * n_batches} samples for {n_batches} batches, "
            f"got {len(samples)}"
        )
    if not 0.0 < confidence < 1.0:
        raise MeasurementError(f"confidence must be in (0,1), got {confidence}")
    batch_size = len(samples) // n_batches
    means = [
        sum(samples[i * batch_size : (i + 1) * batch_size]) / batch_size
        for i in range(n_batches)
    ]
    grand = sum(means) / n_batches
    var = sum((m - grand) ** 2 for m in means) / (n_batches - 1)
    t = _t_quantile(confidence, n_batches - 1)
    half = t * math.sqrt(var / n_batches)
    return grand, half


def mser_truncation(samples: Sequence[float], stride: int = 5) -> int:
    """MSER warm-up truncation: the prefix length to discard.

    Returns the truncation index (a multiple of ``stride``) that minimizes
    the marginal standard error of the remaining observations.  Standard
    caveat applied: never truncate more than half the run.
    """
    n = len(samples)
    if n < 2 * stride:
        raise MeasurementError(f"need >= {2 * stride} samples, got {n}")
    best_d, best_score = 0, math.inf
    for d in range(0, n // 2, stride):
        rest = samples[d:]
        m = len(rest)
        mean = sum(rest) / m
        sse = sum((x - mean) ** 2 for x in rest)
        score = sse / (m * m)
        if score < best_score:
            best_score = score
            best_d = d
    return best_d


@dataclass(frozen=True)
class MetricSummary:
    """Across-replication mean ± CI half-width for one metric."""

    mean: float
    half_width: float
    n: int

    @property
    def relative_error(self) -> float:
        return self.half_width / abs(self.mean) if self.mean else math.inf

    def __str__(self) -> str:
        return f"{self.mean:.5g} ± {self.half_width:.2g} (n={self.n})"


class ReplicationSummary:
    """Aggregates independent-seed :class:`RunResult` replications."""

    METRICS = ("throughput", "offered", "avg_latency", "power_mw")

    def __init__(self, results: Sequence[RunResult], confidence: float = 0.95) -> None:
        if len(results) < 2:
            raise MeasurementError(
                f"need >= 2 replications for a CI, got {len(results)}"
            )
        if not 0.0 < confidence < 1.0:
            raise MeasurementError(f"confidence must be in (0,1), got {confidence}")
        self.results = list(results)
        self.confidence = confidence

    def metric(self, name: str) -> MetricSummary:
        values = [float(getattr(r, name)) for r in self.results]
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        t = _t_quantile(self.confidence, n - 1)
        return MetricSummary(mean, t * math.sqrt(var / n), n)

    def summary(self) -> Dict[str, MetricSummary]:
        return {name: self.metric(name) for name in self.METRICS}

    def format(self) -> str:
        return "\n".join(f"{k:12s}: {v}" for k, v in self.summary().items())


def replicate(
    run_fn: Callable[[int], RunResult],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> ReplicationSummary:
    """Run ``run_fn(seed)`` for every seed and summarize."""
    if len(seeds) < 2:
        raise MeasurementError("need >= 2 seeds")
    results: List[RunResult] = [run_fn(seed) for seed in seeds]
    return ReplicationSummary(results, confidence)
