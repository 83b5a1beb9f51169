"""Ablation studies for the design choices the paper calls out.

* :func:`ablate_window` — R_w sweep ("We use network simulation to
  determine an optimum value of R_w to be 2000 simulation cycles", §3.1).
* :func:`ablate_thresholds` — L_min/L_max/B_max sensitivity (§3.1–3.2).
* :func:`ablate_power_levels` — number of power levels ("More power levels
  … can further improve the performance", §5).
* :func:`ablate_limited_dbr` — grant caps ("Cost-effective design
  alternatives that provide limited flexibility for reconfigurability",
  §5).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.config import ControlParams, ERapidConfig
from repro.core.policies import P_B, ReconfigPolicy, Thresholds
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.metrics.report import format_table
from repro.network.topology import ERapidTopology
from repro.perf.cache import RunCache
from repro.perf.executor import RunTask, run_cached
from repro.power.levels import PowerLevelTable
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "ablate_window",
    "ablate_thresholds",
    "ablate_power_levels",
    "ablate_limited_dbr",
    "ablate_dpm_smoothing",
]

_PLAN = MeasurementPlan(warmup=8000, measure=10000, drain_limit=16000)


def _runs(
    configs: Iterable[ERapidConfig],
    pattern: str,
    load: float,
    cache: Optional[RunCache],
    jobs: int,
) -> List[RunResult]:
    """One fast-engine run per config at ``(pattern, load)``, seed 1.

    Each point is an ordinary :class:`RunTask`, so ``cache`` addresses it
    by :func:`repro.perf.cache.run_cache_key` and ``jobs`` fans the
    misses out like any sweep.
    """
    workload = WorkloadSpec(pattern=pattern, load=load, seed=1)
    tasks = [RunTask(config, workload, _PLAN) for config in configs]
    return run_cached(tasks, cache=cache, jobs=jobs)[0]


def _base_config(boards: int = 4, nodes: int = 4, policy: ReconfigPolicy = P_B,
                 **over) -> ERapidConfig:
    return ERapidConfig(
        topology=ERapidTopology(boards=boards, nodes_per_board=nodes),
        policy=policy,
        **over,
    )


def _variant(name: str, **changes) -> ERapidConfig:
    """The base config under P-B with ``changes`` applied to the policy."""
    return _base_config(policy=replace(P_B, name=name, **changes))


# ----------------------------------------------------------------------
def ablate_window(
    windows: Sequence[int] = (500, 1000, 2000, 4000, 8000),
    pattern: str = "uniform",
    load: float = 0.5,
    cache: Optional[RunCache] = None,
    jobs: int = 1,
) -> Tuple[List[List[object]], str]:
    """Sweep R_w; returns (rows, rendered table)."""
    rows: List[List[object]] = []
    configs = (
        _base_config(control=ControlParams(window_cycles=rw)) for rw in windows
    )
    for rw, r in zip(windows, _runs(configs, pattern, load, cache, jobs)):
        rows.append(
            [rw, r.throughput, r.avg_latency, r.power_mw,
             r.extra["dpm_transitions"]]
        )
    table = format_table(
        ["R_w", "throughput", "latency", "power_mW", "transitions"],
        rows,
        title=f"== Ablation: reconfiguration window R_w "
        f"({pattern} @ {load} N_c, P-B) ==",
    )
    return rows, table


def ablate_thresholds(
    bands: Sequence[Tuple[float, float, float]] = (
        (0.3, 0.5, 0.3),
        (0.5, 0.7, 0.3),
        (0.7, 0.9, 0.3),
        (0.7, 0.9, 0.0),
        (0.7, 0.9, 0.6),
    ),
    pattern: str = "uniform",
    load: float = 0.5,
    cache: Optional[RunCache] = None,
    jobs: int = 1,
) -> Tuple[List[List[object]], str]:
    """Sweep the (L_min, L_max, B_max) triple for P-B."""
    rows: List[List[object]] = []
    configs = (
        _variant(
            f"P-B[{l_min},{l_max},{b_max}]",
            thresholds=Thresholds(l_min=l_min, l_max=l_max, b_max=b_max),
        )
        for l_min, l_max, b_max in bands
    )
    for band, r in zip(bands, _runs(configs, pattern, load, cache, jobs)):
        rows.append([*band, r.throughput, r.avg_latency, r.power_mw])
    table = format_table(
        ["L_min", "L_max", "B_max", "throughput", "latency", "power_mW"],
        rows,
        title=f"== Ablation: DPM/DBR thresholds ({pattern} @ {load} N_c) ==",
    )
    return rows, table


def ablate_power_levels(
    level_counts: Sequence[int] = (2, 3, 5, 8),
    pattern: str = "uniform",
    load: float = 0.4,
    cache: Optional[RunCache] = None,
    jobs: int = 1,
) -> Tuple[List[List[object]], str]:
    """Sweep the number of power levels (§5 future work).

    More levels track the traffic more finely (less power) but re-clock
    more often (more transition stalls).
    """
    rows: List[List[object]] = []
    configs = (
        _base_config(
            power_levels=PowerLevelTable() if n == 3 else PowerLevelTable.synthesize(n)
        )
        for n in level_counts
    )
    for n, r in zip(level_counts, _runs(configs, pattern, load, cache, jobs)):
        rows.append(
            [n, r.throughput, r.avg_latency, r.power_mw, r.extra["dpm_transitions"]]
        )
    table = format_table(
        ["levels", "throughput", "latency", "power_mW", "transitions"],
        rows,
        title=f"== Ablation: number of power levels ({pattern} @ {load} N_c, P-B) ==",
    )
    return rows, table


def ablate_dpm_smoothing(
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    pattern: str = "uniform",
    load: float = 0.5,
    cache: Optional[RunCache] = None,
    jobs: int = 1,
) -> Tuple[List[List[object]], str]:
    """Sweep the history weight of the DPM utilization estimate (§5's
    "multiple power scaling techniques" direction).

    Heavier smoothing suppresses level thrash (fewer re-clock stalls,
    better latency) at the cost of slower adaptation.
    """
    rows: List[List[object]] = []
    configs = (
        _variant(f"P-B[ewma={alpha}]", dpm_smoothing=alpha) for alpha in alphas
    )
    for alpha, r in zip(alphas, _runs(configs, pattern, load, cache, jobs)):
        rows.append(
            [alpha, r.throughput, r.avg_latency, r.power_mw,
             r.extra["dpm_transitions"]]
        )
    table = format_table(
        ["ewma weight", "throughput", "latency", "power_mW", "transitions"],
        rows,
        title=f"== Ablation: DPM history smoothing ({pattern} @ {load} N_c) ==",
    )
    return rows, table


def ablate_limited_dbr(
    caps: Sequence[object] = (0, 1, 2, None),
    pattern: str = "complement",
    load: float = 0.7,
    cache: Optional[RunCache] = None,
    jobs: int = 1,
) -> Tuple[List[List[object]], str]:
    """Cap grants per destination per window (§5 cost-reduced design)."""
    rows: List[List[object]] = []
    configs = (
        _variant(f"P-B[cap={cap}]", max_grants_per_dest=cap) for cap in caps
    )
    for cap, r in zip(caps, _runs(configs, pattern, load, cache, jobs)):
        rows.append(
            ["unlimited" if cap is None else cap, r.throughput, r.avg_latency,
             r.power_mw, r.extra["grants"]]
        )
    table = format_table(
        ["grant cap", "throughput", "latency", "power_mW", "grants"],
        rows,
        title=f"== Ablation: limited reconfigurability ({pattern} @ {load} N_c) ==",
    )
    return rows, table
