"""The engine table: ``fast``, ``batch`` and ``detailed``, registered once.

Every engine name in the program is a key of :data:`ENGINES`: the
``--engine`` flags, :func:`repro.perf.executor.run_cached`, the run-cache
key and :class:`repro.service.spec.JobSpec` all read it.  Importing this
module loads no engine: a hook imports its engine's module when called
and looks the function up there, so a wrapper installed on that module
sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Engine", "ENGINES", "CACHED", "DEFAULT_ENGINE"]

#: ``(label, value, per-second label or None)``: one ``erapid profile`` row.
Row = Tuple[str, Any, Optional[str]]


def _late(module: str, name: str) -> Callable[..., Any]:
    """``module.name``, looked up on every call, never at import."""
    return lambda *a, **kw: getattr(import_module(module), name)(*a, **kw)


@dataclass(frozen=True)
class Engine:
    #: ``(config, workload, plan) -> why the engine cannot run it | None``.
    covers: Callable[..., Optional[str]]
    #: What a run adds to its cache-key payload; None: never cached.
    key_fields: Optional[Callable[[], Dict[str, Any]]]
    #: ``(tasks, jobs=, on_result=, on_shard=, pool=)``: runs
    #: ``run_cached``'s misses.
    execute: Optional[Callable[..., Any]]
    #: ``(config, workload, plan) -> (RunResult, rows)``: one point in-process.
    profile: Callable[..., Tuple[Any, List[Row]]]
    #: ``(tasks, jobs=) -> ShardPlan``: what ``erapid sweep -v`` prints.
    plan: Optional[Callable[..., Any]] = None


def _profile_batch(*run: Any) -> Tuple[Any, List[Row]]:
    engine = import_module("repro.core.batch").BatchEngine([run])
    result, tel = engine.run()[0], engine.telemetry
    executed = max(tel.cycles_executed, 1)
    return result, [
        ("cycles executed", tel.cycles_executed, None),
        ("cycles skipped", tel.cycles_skipped, None),
        ("skip ratio", tel.skip_ratio, None),
        ("dispatch candidates", tel.dispatch_candidates, None),
        ("dispatch candidates per executed cycle",
         tel.dispatch_candidates / executed, None),
    ]


def _profile_detailed(*run: Any) -> Tuple[Any, List[Row]]:
    engine = import_module("repro.core.detailed").DetailedEngine(*run)
    result = engine.run()
    flits = sum(r.flits_routed for r in engine.routers)
    return result, [("flits routed", flits, "flits/sec")]


ENGINES: Dict[str, Engine] = {
    "fast": Engine(  # adds no key fields: every historical key is unchanged
        covers=lambda *run: None,
        key_fields=lambda: {},
        execute=lambda tasks, jobs, on_result, on_shard, pool: _late(
            "repro.perf.executor", "execute_tasks"
        )(tasks, jobs=jobs, on_result=on_result, pool=pool),
        profile=lambda *run: (_late("repro.core.engine", "FastEngine")(*run).run(), []),
    ),
    "batch": Engine(
        covers=_late("repro.core.batch", "coverage_gap"),
        key_fields=lambda: {
            "engine": "batch",
            "batch_kernel_version": import_module(
                "repro.core.batch"
            ).BATCH_KERNEL_VERSION,
        },
        execute=_late("repro.perf.executor", "run_sweep_batched"),
        profile=_profile_batch,
        plan=_late("repro.perf.shards", "plan_shards"),
    ),
    "detailed": Engine(
        covers=_late("repro.core.detailed", "coverage_gap"),
        key_fields=None,
        execute=None,
        profile=_profile_detailed,
    ),
}

#: The engine a run takes when none is named, and the one a point another
#: cached engine does not cover runs (and is keyed) on.
DEFAULT_ENGINE = "fast"

#: The engines whose runs go through the run cache.
CACHED = tuple(n for n, e in ENGINES.items() if e.key_fields is not None)
