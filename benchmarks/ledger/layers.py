"""Per-layer metrics of one traced pass: the metric table and its arithmetic.

Times are span **self** times (:func:`spans.self_times`) summed per layer
by :data:`SELF_TIME`; counts come from public results — ``ShardReport``
(batch telemetry, arriving through ``on_shard`` inline and pooled alike),
``RunResult``, router ``flits_routed``, the run cache's persistent
counters and the job manifests.  Runs executed in pool workers leave no
span in this process: their results are still counted, but rates
(``core.engine.pkts_per_s``, ``sim.events_per_s``) are over the runs this
process executed itself, and worker time is known for batch shards only
(``ShardReport.seconds`` → ``perf.executor.worker_busy_s``).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from spans import After, Span, self_times
from workloads import PassResult

__all__ = ["PER_LAYER", "SELF_TIME", "Counts", "layer_metrics", "median_metrics", "percentile"]

#: ``*_s`` metric -> the span names whose self time it sums.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "experiments.table_fig1_s": (
        "experiments.table1_checks", "experiments.render_table1",
    ),
    "experiments.fig3_s": ("experiments.run_fig3", "experiments.render_fig3"),
    "experiments.sweeps_s": ("experiments.run_sweep_matrix",),
    "experiments.ablations_s": (
        "experiments.ablate_window", "experiments.ablate_thresholds",
        "experiments.ablate_power_levels", "experiments.ablate_limited_dbr",
    ),
    "experiments.self_s": ("experiments.reproduce_all",),
    "core.batch.build_s": ("core.batch.build",),
    "core.batch.loop_s": ("core.batch.run_payload",),
    "core.batch.decode_s": ("core.batch.decode_payload",),
    "core.batch.coverage_s": ("core.batch.coverage_gap",),
    "core.engine.busy_s": ("core.engine.run",),
    "core.detailed.busy_s": ("core.detailed.run",),
    "perf.executor.self_s": (
        "perf.executor.execute_tasks", "perf.executor.run_sweep_batched",
    ),
    "perf.shards.plan_s": ("perf.shards.plan_shards",),
    "perf.cache.key_s": ("perf.cache.key_for",),
    "perf.cache.get_s": ("perf.cache.get_many",),
    "perf.cache.put_s": ("perf.cache.put_many",),
    "perf.cache.flush_s": ("perf.cache.flush_counters",),
    "service.submit_s": ("service.submit",),
    "service.execute_s": ("service.execute_job",),
    "service.publish_s": ("service.write_manifest", "service.audit_append"),
    "analysis.fingerprint_s": ("analysis.sweep_fingerprint",),
}

#: Every per-layer metric the ledger prints, with its unit and direction.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{name: ("s", "lower") for name in SELF_TIME},
    "core.batch.slabs": ("count", "lower"),
    "core.batch.runs": ("count", "higher"),
    "core.batch.fallback_runs": ("count", "lower"),
    "core.batch.cycles_executed": ("count", "lower"),
    "core.batch.cycles_skipped": ("count", "higher"),
    "core.batch.skip_ratio": ("ratio", "higher"),
    "core.batch.events": ("count", "lower"),
    "core.batch.ns_per_event": ("ns", "lower"),
    "core.batch.us_per_cycle": ("us", "lower"),
    "core.batch.blocked_retries": ("count", "lower"),
    "core.batch.compactions": ("count", "higher"),
    "core.engine.runs": ("count", "lower"),
    "core.engine.pkts": ("count", "higher"),
    "core.engine.pkts_per_s": ("1/s", "higher"),
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "core.detailed.runs": ("count", "lower"),
    "core.detailed.flits": ("count", "higher"),
    "core.detailed.flits_per_s": ("1/s", "higher"),
    "core.detailed.events": ("count", "lower"),
    "core.detailed.xval_thr_err": ("ratio", "lower"),
    "perf.executor.calls": ("count", "lower"),
    "perf.executor.worker_busy_s": ("s", "lower"),
    "perf.executor.pool_efficiency": ("ratio", "higher"),
    "perf.shards.batch_shards": ("count", "lower"),
    "perf.shards.rescued": ("count", "lower"),
    "perf.shards.payload_bytes": ("B", "lower"),
    "perf.cache.keys": ("count", "lower"),
    "perf.cache.hits": ("count", "higher"),
    "perf.cache.misses": ("count", "lower"),
    "perf.cache.puts": ("count", "lower"),
    "perf.cache.hit_ratio": ("ratio", "higher"),
    "perf.cache.disk_bytes": ("B", "lower"),
    "perf.cache.get_us_per_entry": ("us", "lower"),
    "perf.cache.put_us_per_entry": ("us", "lower"),
    "service.jobs": ("count", "higher"),
    "service.deduped": ("count", "higher"),
    "service.rejected": ("count", "lower"),
    "service.failed": ("count", "lower"),
    "service.runs_executed": ("count", "lower"),
    "service.runs_cached": ("count", "higher"),
    "service.queue_wait_p50_s": ("s", "lower"),
    "service.queue_wait_p90_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: ``BatchTelemetry`` counters that count events (not cycles).
_EVENT_KEYS = (
    "injections", "deliveries", "port_exits", "dispatches",
    "recv_completions", "blocked_retries", "window_boundaries", "drain_checks",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Counts:
    """Counts read off results as the wrapped calls return (one pass)."""

    def __init__(self) -> None:
        #: (ShardReport, whether it ran in a pool worker).
        self.shards: List[Tuple[Any, bool]] = []
        #: Fast-engine runs executed in this process / returned by a pool.
        self.own = {"runs": 0, "pkts": 0, "events": 0}
        self.pooled = {"runs": 0, "pkts": 0, "events": 0}
        self.detailed = {"runs": 0, "flits": 0, "events": 0}
        self.cache_entries = {"get": 0, "put": 0}

    def on_shard(self, report: Any, jobs: int) -> None:
        self.shards.append((report, jobs > 1))

    def _engine_run(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.own["runs"] += 1
        self.own["pkts"] += result.delivered_measure
        self.own["events"] += result.extra["events"]

    def _execute_tasks(self, args: tuple, kwargs: dict, results: Any) -> None:
        # A pooled call's engine spans stayed in the workers; an inline
        # call's runs were already counted by ``_engine_run``.
        tasks = args[0] if args else kwargs["tasks"]
        jobs = args[1] if len(args) > 1 else kwargs.get("jobs", 1)
        if jobs > 1 and len(tasks) > 1:
            self.pooled["runs"] += len(results)
            self.pooled["pkts"] += sum(r.delivered_measure for r in results)
            self.pooled["events"] += sum(r.extra["events"] for r in results)

    def _detailed_run(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.detailed["runs"] += 1
        self.detailed["flits"] += sum(r.flits_routed for r in args[0].routers)
        self.detailed["events"] += result.extra["events"]

    def _get_many(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.cache_entries["get"] += len(result)

    def _put_many(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.cache_entries["put"] += result  # put_many returns the count stored

    def hooks(self) -> Dict[str, After]:
        return {
            "core.engine.run": self._engine_run,
            "perf.executor.execute_tasks": self._execute_tasks,
            "core.detailed.run": self._detailed_run,
            "perf.cache.get_many": self._get_many,
            "perf.cache.put_many": self._put_many,
        }


def layer_metrics(
    spans: Sequence[Span], counts: Counts, result: PassResult, pool_width: int
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass
    (``trace.overhead_frac`` is the harness's to fill)."""
    own = self_times(spans)
    self_by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    duration: Dict[str, float] = defaultdict(float)
    for s in spans:
        self_by_name[s.name] += own[s.span_id]
        calls[s.name] += 1
        duration[s.name] += s.end - s.start
    m: Dict[str, float] = {
        metric: sum(self_by_name[n] for n in names)
        for metric, names in SELF_TIME.items()
    }

    batch = [(r, pooled) for r, pooled in counts.shards if r.kind == "batch"]
    telemetry = [r.telemetry or {} for r, _ in batch]
    batch_busy = sum(r.seconds for r, _ in batch)
    events = sum(t.get(k, 0) for t in telemetry for k in _EVENT_KEYS)
    executed = sum(t.get("cycles_executed", 0) for t in telemetry)
    skipped = sum(t.get("cycles_skipped", 0) for t in telemetry)
    m["core.batch.slabs"] = len(batch)
    m["core.batch.runs"] = sum(r.runs for r, _ in batch)
    m["core.batch.fallback_runs"] = sum(
        r.runs for r, _ in counts.shards if r.kind != "batch"
    )
    m["core.batch.cycles_executed"] = executed
    m["core.batch.cycles_skipped"] = skipped
    m["core.batch.skip_ratio"] = _ratio(skipped, executed + skipped)
    m["core.batch.events"] = events
    m["core.batch.ns_per_event"] = _ratio(batch_busy * 1e9, events)
    m["core.batch.us_per_cycle"] = _ratio(batch_busy * 1e6, executed)
    m["core.batch.blocked_retries"] = sum(t.get("blocked_retries", 0) for t in telemetry)
    m["core.batch.compactions"] = sum(t.get("compactions", 0) for t in telemetry)

    busy = m["core.engine.busy_s"]
    m["core.engine.runs"] = counts.own["runs"] + counts.pooled["runs"]
    m["core.engine.pkts"] = counts.own["pkts"] + counts.pooled["pkts"]
    m["core.engine.pkts_per_s"] = _ratio(counts.own["pkts"], busy)
    m["sim.events"] = counts.own["events"] + counts.pooled["events"]
    m["sim.events_per_s"] = _ratio(counts.own["events"], busy)

    m["core.detailed.runs"] = counts.detailed["runs"]
    m["core.detailed.flits"] = counts.detailed["flits"]
    m["core.detailed.flits_per_s"] = _ratio(
        counts.detailed["flits"], m["core.detailed.busy_s"]
    )
    m["core.detailed.events"] = counts.detailed["events"]
    m["core.detailed.xval_thr_err"] = result.xval_thr_err

    worker_busy = sum(r.seconds for r, pooled in batch if pooled)
    m["perf.executor.calls"] = (
        calls["perf.executor.execute_tasks"] + calls["perf.executor.run_sweep_batched"]
    )
    m["perf.executor.worker_busy_s"] = worker_busy
    # A workload has one pool width, so pooled shards imply every
    # run_sweep_batched span of the pass had that many workers to fill.
    m["perf.executor.pool_efficiency"] = _ratio(
        worker_busy, pool_width * duration["perf.executor.run_sweep_batched"]
    ) if worker_busy else 0.0
    m["perf.shards.batch_shards"] = len(batch)
    m["perf.shards.rescued"] = sum(1 for r, _ in counts.shards if r.kind == "fallback")
    m["perf.shards.payload_bytes"] = sum(r.payload_bytes for r, _ in counts.shards)

    cache = result.cache
    m["perf.cache.keys"] = calls["perf.cache.key_for"]
    for key in ("hits", "misses", "puts", "disk_bytes"):
        m[f"perf.cache.{key}"] = cache.get(key, 0)
    m["perf.cache.hit_ratio"] = _ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
    )
    m["perf.cache.get_us_per_entry"] = _ratio(
        m["perf.cache.get_s"] * 1e6, counts.cache_entries["get"]
    )
    m["perf.cache.put_us_per_entry"] = _ratio(
        m["perf.cache.put_s"] * 1e6, counts.cache_entries["put"]
    )

    service = result.service
    for key in ("jobs", "deduped", "rejected", "failed", "runs_executed", "runs_cached"):
        m[f"service.{key}"] = service.get(key, 0)
    waits = service.get("queue_waits", [])
    m["service.queue_wait_p50_s"] = percentile(waits, 0.5)
    m["service.queue_wait_p90_s"] = percentile(waits, 0.9)
    return m


def median_metrics(per_pass: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per metric, the median over the traced passes of a run."""
    return {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
