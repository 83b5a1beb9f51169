"""Run-time span tracing around the layers' public entry points.

The ledger records where a pass's host time goes without editing
``src/repro``: for the duration of one traced pass every function in
:func:`targets` is replaced by a wrapper that records a span — name,
start, end, the span that caused it, the pass id — in memory.  A layer's
time is its spans' **self** time: duration minus the part of that
interval its child spans cover.

Three things the outside view cannot do, stated where the numbers print:

* spans opened inside pool workers stay in the (forked) worker and are
  lost; batch shards are covered by ``ShardReport.seconds`` instead;
* a span that starts on a thread with no open span (the service's
  scheduler and client threads) is attached to the pass root, so spans of
  different threads can overlap — :func:`self_times` subtracts the
  *union* of the children and :func:`check_spans` accounts the overlap;
* the event kernel cannot be split from the engine driving it.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Target", "Tracer", "targets", "self_times", "check_spans"]

#: ``before(args, kwargs) -> kwargs`` may replace the call's keyword
#: arguments; ``after(args, kwargs, result)`` reads counts off the result.
Before = Callable[[tuple, dict], dict]
After = Callable[[tuple, dict, Any], None]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: str
    thread: str

    def to_dict(self) -> Dict[str, object]:
        return dict(vars(self))


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` recorded as ``name``."""

    name: str
    owner: object
    attr: str
    before: Optional[Before] = None
    after: Optional[After] = None


def targets(
    on_shard: Callable[[object, int], None],
    after: Dict[str, After],
) -> List[Target]:
    """The span table: every public entry point the ledger times.

    ``on_shard(report, jobs)`` is chained onto ``run_sweep_batched``'s own
    ``on_shard`` hook so batch telemetry arrives the same way inline and
    pooled; ``after`` maps span names to count readers.
    """
    from repro.analysis import determinism
    from repro.core import batch
    from repro.core.detailed import DetailedEngine
    from repro.core.engine import FastEngine
    from repro.experiments import ablations, fig3, runner, sweep, table1
    from repro.perf import executor, shards
    from repro.perf.cache import RunCache
    from repro.service import runner as service_runner
    from repro.service.artifacts import ArtifactStore
    from repro.service.audit import AuditLog
    from repro.service.orchestrator import SweepService

    def chain_on_shard(args: tuple, kwargs: dict) -> dict:
        inner = kwargs.get("on_shard")
        jobs = args[1] if len(args) > 1 else kwargs.get("jobs", 1)

        def hook(report: object) -> None:
            on_shard(report, jobs)
            if inner is not None:
                inner(report)

        return {**kwargs, "on_shard": hook}

    table: List[Tuple[str, object, str]] = [
        ("experiments.reproduce_all", runner, "reproduce_all"),
        ("experiments.table1_checks", table1, "table1_checks"),
        ("experiments.render_table1", table1, "render_table1"),
        ("experiments.run_fig3", fig3, "run_fig3"),
        ("experiments.render_fig3", fig3, "render_fig3"),
        ("experiments.ablate_window", ablations, "ablate_window"),
        ("experiments.ablate_thresholds", ablations, "ablate_thresholds"),
        ("experiments.ablate_power_levels", ablations, "ablate_power_levels"),
        ("experiments.ablate_limited_dbr", ablations, "ablate_limited_dbr"),
        ("experiments.run_sweep_matrix", sweep, "run_sweep_matrix"),
        ("perf.executor.execute_tasks", executor, "execute_tasks"),
        ("perf.executor.run_sweep_batched", executor, "run_sweep_batched"),
        ("perf.shards.plan_shards", shards, "plan_shards"),
        ("core.batch.coverage_gap", batch, "coverage_gap"),
        ("core.batch.build", batch.BatchEngine, "__init__"),
        ("core.batch.run_payload", batch.BatchEngine, "run_payload"),
        ("core.batch.decode_payload", batch, "decode_payload"),
        ("core.engine.run", FastEngine, "run"),
        ("core.detailed.run", DetailedEngine, "run"),
        ("perf.cache.key_for", RunCache, "key_for"),
        ("perf.cache.get_many", RunCache, "get_many"),
        ("perf.cache.put_many", RunCache, "put_many"),
        ("perf.cache.flush_counters", RunCache, "flush_counters"),
        ("service.submit", SweepService, "submit"),
        ("service.execute_job", service_runner, "execute_job"),
        ("service.write_manifest", ArtifactStore, "write_manifest"),
        ("service.audit_append", AuditLog, "append"),
        ("analysis.sweep_fingerprint", determinism, "sweep_fingerprint"),
    ]
    before = {"perf.executor.run_sweep_batched": chain_on_shard}
    return [
        Target(name, owner, attr, before.get(name), after.get(name))
        for name, owner, attr in table
    ]


class Tracer:
    """In-memory span recorder; wrappers exist only inside a traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._pass_id = ""
        #: (namespace dict owner, attribute, original) for every patched slot.
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        stack: Optional[List[int]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(
                len(self.spans), name, 0.0, 0.0, parent, self._pass_id,
                threading.current_thread().name,
            )
            self.spans.append(span)
        stack.append(span.span_id)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._local.stack.pop()

    def _wrapper(self, target: Target, original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if target.before is not None:
                kwargs = target.before(args, kwargs)
            span = self._open(target.name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if target.after is not None:
                target.after(args, kwargs, result)
            return result

        traced.ledger_span = target.name  # type: ignore[attr-defined]
        return traced

    def _install(self, table: Sequence[Target]) -> None:
        # ``from x import f`` copies the reference, so a function must be
        # patched in every module namespace that holds it: index them once.
        holders: Dict[int, List[Tuple[object, str]]] = {}
        for name, mod in sorted(sys.modules.items()):
            if mod is not None and (name == "repro" or name.startswith("repro.")):
                for attr, value in list(vars(mod).items()):
                    holders.setdefault(id(value), []).append((mod, attr))
        for target in table:
            original = vars(target.owner)[target.attr]
            wrapper = self._wrapper(target, original)
            if isinstance(target.owner, type):
                slots = [(target.owner, target.attr)]
            else:
                slots = holders[id(original)]
            for owner, attr in slots:
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @staticmethod
    def wrappers_left(table: Sequence[Target]) -> List[str]:
        """Names of table entries still wrapped (must be empty after a pass)."""
        return [
            t.name for t in table
            if hasattr(vars(t.owner)[t.attr], "ledger_span")
        ]

    # ------------------------------------------------------------------
    @contextmanager
    def traced_pass(self, pass_id: str, table: Sequence[Target]) -> Iterator[None]:
        """Install the wrappers and open the root span for one pass."""
        self._pass_id = pass_id
        self._install(table)
        self._local.stack = []
        root = self._open("pass")
        self._root = root.span_id
        try:
            yield
        finally:
            self._close(root)
            self._root = None
            self._uninstall()

    def pass_spans(self, pass_id: str) -> List[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    edge = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, edge)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


def _children(spans: Sequence[Span]) -> Dict[int, List[Tuple[float, float]]]:
    by_id = {s.span_id: s for s in spans}
    kids: Dict[int, List[Tuple[float, float]]] = {s.span_id: [] for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            kids[p.span_id].append((max(s.start, p.start), min(s.end, p.end)))
    return kids


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``{span id: duration minus the union of its children}``."""
    kids = _children(spans)
    return {s.span_id: (s.end - s.start) - _union(kids[s.span_id]) for s in spans}


def check_spans(spans: Sequence[Span]) -> Dict[str, object]:
    """Bookkeeping self-test for one pass's spans.

    Self times must add up to the root span once the time that sibling
    spans of different threads overlap (counted twice by the sum) is taken
    out; every non-root span must name a parent that exists.
    """
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent is None]
    orphans = [s.span_id for s in spans if s.parent is not None and s.parent not in ids]
    kids = _children(spans)
    overlap = sum(
        sum(hi - lo for lo, hi in iv) - _union(iv) for iv in kids.values()
    )
    root_s = roots[0].end - roots[0].start if len(roots) == 1 else 0.0
    total = sum(self_times(spans).values())
    error = abs(total - overlap - root_s) / root_s if root_s > 0 else 1.0
    return {
        "spans": len(spans),
        "root_s": root_s,
        "self_sum_s": total,
        "thread_overlap_s": overlap,
        "error_frac": error,
        "orphans": len(orphans),
        "ok": len(roots) == 1 and not orphans and error <= 0.01,
    }
