"""One-command reproduction: regenerate every table and figure.

``erapid reproduce --out results/`` (or :func:`reproduce_all`) runs the
whole evaluation — Table 1, Figures 1/3/4/5/6 and the ablations — and
writes text renderings plus CSVs into the output directory.  This is the
programmatic equivalent of running the full bench suite.

The dominant cost is stage 3, the Figure 5/6 load sweeps: a (4 patterns ×
4 policies × loads) matrix of independent runs.  That stage and the
ablation points fan out to a process pool (``jobs=N`` / ``erapid
reproduce --jobs N``), and every simulated stage is backed by the
content-addressed run cache (:mod:`repro.perf.cache`): sweep runs at the
cache root, Figure 3's probed runs and the ablation points in its
``stages/`` store.  A repeated invocation therefore simulates nothing —
it reads entries and renders.  Stage timings are measured with
``time.perf_counter`` and reported per stage in the final log line.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.ablations import (
    ablate_limited_dbr,
    ablate_power_levels,
    ablate_thresholds,
    ablate_window,
)
from repro.experiments.fig3 import render_fig3, run_fig3
from repro.experiments.figures import FigurePanel
from repro.experiments.io import sweep_rows, write_csv, write_text
from repro.experiments.sweep import SweepSpec, run_sweep_matrix
from repro.experiments.table1 import render_table1, table1_checks
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.cache import RunCache, key_scope
from repro.perf.engines import DEFAULT_ENGINE

__all__ = ["reproduce_all", "FIGURE_PATTERNS"]

#: The four Figure 5/6 panels.
FIGURE_PATTERNS = {
    "fig5_uniform": "uniform",
    "fig5_complement": "complement",
    "fig6_butterfly": "butterfly",
    "fig6_shuffle": "perfect_shuffle",
}


def _resolve_cache(cache: Union[bool, RunCache, None]) -> Optional[RunCache]:
    """``True`` → default store, ``False``/``None`` → disabled."""
    if isinstance(cache, RunCache):
        return cache
    if cache:
        return RunCache()
    return None


# One key scope per call: Figure 3, the sweeps and the ablations encode
# each shared frozen config object once, and the memo dies on return.
@key_scope()
def reproduce_all(
    out_dir: Union[str, Path],
    loads: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    plan: Optional[MeasurementPlan] = None,
    log: Callable[[str], None] = print,
    jobs: int = 1,
    cache: Union[bool, RunCache, None] = True,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, Path]:
    """Run every experiment; returns {artifact name: path}.

    Parameters
    ----------
    jobs:
        Process-pool width for the sweep and ablation stages (``1`` =
        serial).  Output is bit-identical for every value.
    cache:
        ``True`` (default) memoizes every simulated stage — sweep runs,
        Figure 3's probed runs, ablation points — in the default run
        cache (``$ERAPID_CACHE_DIR`` or ``~/.cache/erapid/runs``); pass a
        :class:`RunCache` to choose the store, or ``False`` to simulate
        everything directly.  Artifacts are byte-identical either way.
    engine:
        Sweep-stage engine: ``"fast"`` (scalar, default) or ``"batch"``
        (vectorized slabs with scalar fallback; statistically equivalent
        under the declared tolerances, not bit-identical).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = plan or MeasurementPlan(warmup=8000, measure=10000, drain_limit=16000)
    run_cache = _resolve_cache(cache)
    # Scalar-stage traffic is accounted apart from the sweep's.
    stage_cache = run_cache.stages() if run_cache is not None else None
    written: Dict[str, Path] = {}

    def save(name: str, text: str) -> None:
        path = out / f"{name}.txt"
        write_text(path, text + "\n")
        written[name] = path
        log(f"  wrote {path}")

    def account(label: str, store: Optional[RunCache]) -> None:
        if store is None:
            return
        stats = store.stats()
        total = stats["hits"] + stats["misses"]
        log(
            f"  {label} cache: {stats['hits']}/{total} hits "
            f"({stats['puts']} stored) in {store.root}"
        )
        # Fold this invocation into the store's cumulative counters so
        # `erapid cache stats` reflects harness traffic too.
        store.flush_counters()

    start = perf_counter()
    log("[1/4] Table 1 + Figure 1 ...")
    table1_checks()
    save("table1_parameters", render_table1())
    from repro.optics.rwa import StaticRWA

    rwa = StaticRWA(8)
    rwa.validate()
    save("fig1_rwa", "Static RWA, R(1,8,8):\n" + rwa.render_table())
    table_s = perf_counter() - start

    start = perf_counter()
    log("[2/4] Figure 3 design-space time series ...")
    save("fig3_design_space", render_fig3(run_fig3(cache=stage_cache)))
    fig3_s = perf_counter() - start

    start = perf_counter()
    mode = f"jobs={jobs}" if jobs > 1 else "serial"
    if engine != DEFAULT_ENGINE:
        mode = f"{engine} engine, {mode}"
    cache_note = "cached" if run_cache is not None else "no cache"
    log(f"[3/4] Figure 5/6 load sweeps (4 patterns x 4 policies, {mode}, "
        f"{cache_note}) ...")
    specs = {
        name: SweepSpec(pattern=pattern, loads=tuple(loads), plan=plan)
        for name, pattern in FIGURE_PATTERNS.items()
    }

    def progress(
        panel: str, policy: str, load: float, result: RunResult, cached: bool
    ) -> None:
        suffix = " (cached)" if cached else ""
        log(
            f"  [{panel}] {policy:>5} load={load:.1f} "
            f"thr={result.throughput:.4f} power={result.power_mw:.1f}mW{suffix}"
        )

    matrix = run_sweep_matrix(
        specs, progress=progress, jobs=jobs, cache=run_cache, engine=engine
    )
    for name, spec in specs.items():
        panel = FigurePanel(spec, matrix[name])
        save(name, panel.render())
        csv_path = write_csv(out / f"{name}.csv", sweep_rows(panel.results))
        written[f"{name}.csv"] = csv_path
        log(f"  wrote {csv_path}")
    account("sweep", run_cache)
    sweeps_s = perf_counter() - start

    start = perf_counter()
    log("[4/4] Ablations ...")
    for name, fn in (
        ("ablation_window", ablate_window),
        ("ablation_thresholds", ablate_thresholds),
        ("ablation_power_levels", ablate_power_levels),
        ("ablation_limited_dbr", ablate_limited_dbr),
    ):
        _, table = fn(cache=stage_cache, jobs=jobs)
        save(name, table)
    account("stage", stage_cache)
    ablations_s = perf_counter() - start

    total_s = table_s + fig3_s + sweeps_s + ablations_s
    log(
        f"done in {total_s:.1f}s (table {table_s:.1f}s, fig3 {fig3_s:.1f}s, "
        f"sweeps {sweeps_s:.1f}s, ablations {ablations_s:.1f}s) — "
        f"{len(written)} artifacts in {out}"
    )
    return written
