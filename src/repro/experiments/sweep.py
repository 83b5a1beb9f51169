"""Load-sweep runner — the engine behind Figures 5 and 6.

§4: the network load is varied from 0.1 to 0.9 of the (uniform-random)
network capacity; each (policy, pattern, load) triple is one simulation
run.  :func:`run_sweep` executes the matrix with common random numbers
across policies so curves differ only by the mechanism under test.

Every cell of the matrix is an independent simulation, so the runner
supports:

* ``jobs=N`` — fan the runs out to a process pool
  (:mod:`repro.perf.executor`); results are reassembled in task order and
  are bit-identical to serial execution;
* ``cache=RunCache(...)`` — skip runs whose content address
  (:mod:`repro.perf.cache`) is already on disk;
* ``progress(...)`` — stream per-run completion lines (cache hits first,
  in deterministic order, then live runs as they finish).

:func:`run_sweep_matrix` is the multi-panel generalization ``reproduce``
uses to fan all four Figure 5/6 panels into one pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.engines import DEFAULT_ENGINE

__all__ = [
    "SweepSpec",
    "run_sweep",
    "run_sweep_matrix",
    "PAPER_LOADS",
    "MatrixProgress",
    "SweepProgress",
]

#: §4's sweep points.
PAPER_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: ``progress(policy, load, result)`` — per-run completion hook.
SweepProgress = Callable[[str, float, RunResult], None]

#: ``progress(panel, policy, load, result, cached)`` — matrix-wide hook.
MatrixProgress = Callable[[str, str, float, RunResult, bool], None]


@dataclass(frozen=True)
class SweepSpec:
    """One figure panel: a pattern swept over loads for several policies."""

    pattern: str = "uniform"
    loads: Sequence[float] = PAPER_LOADS
    policies: Sequence[str] = ("NP-NB", "P-NB", "NP-B", "P-B")
    boards: int = 8
    nodes_per_board: int = 8
    seed: int = 1
    plan: MeasurementPlan = field(
        default_factory=lambda: MeasurementPlan(
            warmup=8000.0, measure=12000.0, drain_limit=24000.0
        )
    )

    def __post_init__(self) -> None:
        if not self.loads:
            raise ConfigurationError("sweep needs at least one load point")
        for p in self.policies:
            if p not in POLICIES:
                raise ConfigurationError(f"unknown policy {p!r}")

    def tasks(
        self, base_config: Optional[ERapidConfig] = None
    ) -> List["RunTask"]:
        """The exact run-task list :func:`run_sweep` executes, in order
        (:func:`repro.perf.executor.grid_tasks`).

        :func:`run_sweep_matrix` builds its batch from it; also exposed so
        callers (the CLI's verbose shard-plan output, the shard planner)
        can reason about a sweep's layout without running it.
        """
        from repro.perf.executor import grid_tasks

        return grid_tasks(
            base_config or _default_config(self),
            self.pattern, self.policies, self.loads, self.seed, self.plan,
        )


def _default_config(spec: SweepSpec) -> ERapidConfig:
    from repro.network.topology import ERapidTopology

    return ERapidConfig(
        topology=ERapidTopology(
            boards=spec.boards, nodes_per_board=spec.nodes_per_board
        )
    )


def run_sweep(
    spec: SweepSpec,
    base_config: Optional[ERapidConfig] = None,
    progress: Optional[SweepProgress] = None,
    jobs: int = 1,
    cache: Optional["RunCache"] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, List[RunResult]]:
    """Run the full (policy × load) matrix; returns {policy: [results]}.

    ``progress(policy, load, result)`` is invoked after each run when
    given (the CLI uses it for live output).  ``jobs``/``cache``/
    ``engine`` behave as documented on :func:`run_sweep_matrix`; outputs
    are bit-identical for every ``jobs`` value, every shard layout, and
    across cache hits.
    """
    matrix_progress: Optional[MatrixProgress] = None
    if progress is not None:
        hook = progress  # narrow for the closure

        def matrix_progress(
            panel: str, policy: str, load: float, result: RunResult, cached: bool
        ) -> None:
            hook(policy, load, result)

    return run_sweep_matrix(
        {"sweep": spec},
        base_configs={"sweep": base_config} if base_config is not None else None,
        progress=matrix_progress,
        jobs=jobs,
        cache=cache,
        engine=engine,
    )["sweep"]


def run_sweep_matrix(
    specs: Mapping[str, SweepSpec],
    base_configs: Optional[Mapping[str, Optional[ERapidConfig]]] = None,
    progress: Optional[MatrixProgress] = None,
    jobs: int = 1,
    cache: Optional["RunCache"] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, Dict[str, List[RunResult]]]:
    """Run several sweep panels as one flat (panel × policy × load) batch.

    Parameters
    ----------
    specs:
        ``{panel name: SweepSpec}``; iteration order fixes task order.
    base_configs:
        Optional per-panel config override (same keys as ``specs``).
    progress:
        ``progress(panel, policy, load, result, cached)`` — called once
        per run: immediately (deterministic order) for cache hits, then
        as live runs complete.
    jobs:
        Process-pool width; ``1`` executes inline.  Results are
        reassembled by task index, so every ``jobs`` value yields
        byte-identical output.
    cache:
        Optional :class:`repro.perf.cache.RunCache`; hits skip execution
        (answered by one batched :meth:`~repro.perf.cache.RunCache.
        get_many` lookup), misses are stored after running through
        chunked :meth:`~repro.perf.cache.RunCache.put_many` writes.
    engine:
        A cached engine of :data:`repro.perf.engines.ENGINES`, whose entry
        runs the misses (anything else raises :class:`~repro.errors.
        ConfigurationError`).  ``"fast"`` (default) runs every point on the
        scalar :class:`~repro.core.engine.FastEngine`; ``"batch"`` routes points
        the vectorized model covers through the sharded
        :func:`repro.perf.executor.run_sweep_batched` path — under
        ``jobs > 1`` covered runs are split into per-worker sub-slabs
        scheduled alongside scalar fallback on one pool.  Cache keys are
        engine-aware per point: a point the batch engine executes is
        keyed in the batch keyspace, a fallback point keeps its scalar
        key (its result *is* a scalar result).

    Returns ``{panel: {policy: [RunResult per load]}}``.
    """
    from repro.perf.executor import run_cached

    results: Dict[str, Dict[str, List[Optional[RunResult]]]] = {
        name: {p: [None] * len(spec.loads) for p in spec.policies}
        for name, spec in specs.items()
    }
    tasks: List[RunTask] = []
    #: Parallel to ``tasks``: (panel, policy, load slot) in spec order.
    cells: List[Tuple[str, str, int]] = []
    for name, spec in specs.items():
        tasks.extend(spec.tasks((base_configs or {}).get(name)))
        cells.extend(
            (name, policy_name, li)
            for policy_name in spec.policies
            for li in range(len(spec.loads))
        )

    def on_result(index: int, result: RunResult, cached: bool) -> None:
        name, policy_name, li = cells[index]
        results[name][policy_name][li] = result
        if progress is not None:
            progress(name, policy_name, specs[name].loads[li], result, cached)

    run_cached(
        tasks, cache=cache, jobs=jobs, engine=engine, on_result=on_result
    )

    # All slots are filled now; narrow Optional away for callers.
    return {
        name: {p: list(runs) for p, runs in panels.items()}  # type: ignore[misc]
        for name, panels in results.items()
    }


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import RunCache
    from repro.perf.executor import RunTask
