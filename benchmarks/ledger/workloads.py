"""The ledger's four workloads, as one table.

Each workload is three functions over public ``repro`` entry points:
``setup(seed, quick, dir)`` builds the inputs (timed as set-up),
``run_pass(state, dir, timed)`` does one full pass inside a private
directory and times the measured region with ``timed()``, and
``check(state, passes, golden)`` returns one line per wrong output.
``quick`` only shrinks the inputs for the smoke test; a measured pass is
always the full-size one.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import threading
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.determinism import sweep_fingerprint
from repro.core.config import ERapidConfig
from repro.core.detailed import DetailedEngine
from repro.core.engine import FastEngine
from repro.core.policies import POLICIES
from repro.errors import JobFailedError, QueueFullError, ServiceError
from repro.experiments.runner import FIGURE_PATTERNS, reproduce_all
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.cache import RunCache
from repro.service import ArtifactStore, JobSpec, SweepService
from repro.traffic.workload import WorkloadSpec

__all__ = ["PassResult", "Stopwatch", "Workload", "WORKLOADS", "POOL_WIDTH"]

#: Pool width anywhere in the ledger: never more workers than the host has.
POOL_WIDTH = min(2, os.cpu_count() or 1)

#: A service job that has not finished by then counts as failed.
JOB_TIMEOUT_S = 120.0


@dataclass
class PassResult:
    """What one pass did, as the end-to-end metrics and checks need it."""

    wall_s: float = 0.0
    #: Simulation runs completed (executed or served from cache).
    runs: int = 0
    #: Nominal simulated cycles of those runs (warmup + measure + drain).
    sim_cycles: float = 0.0
    #: Seconds each caller-visible operation took (a job, a call, a point).
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Outputs the checks compare (digests, fingerprints, paper band).
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: Run-cache traffic of the pass: hits / misses / puts and bytes on disk.
    cache: Dict[str, int] = field(default_factory=dict)
    #: Service counts and manifest timings (``service_mix`` only).
    service: Dict[str, Any] = field(default_factory=dict)
    xval_thr_err: float = 0.0


class Stopwatch(AbstractContextManager):
    """Times a pass's measured region; ``around`` (the tracer's root span
    when tracing) is entered first so its set-up stays outside the time."""

    def __init__(
        self, around: Callable[[], AbstractContextManager] = nullcontext
    ) -> None:
        self._around = around
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._ctx = self._around()
        self._ctx.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> Optional[bool]:
        self.seconds = perf_counter() - self._start
        return self._ctx.__exit__(*exc)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, bool, Path], Any]
    run_pass: Callable[[Any, Path, Callable[[], Stopwatch]], PassResult]
    check: Callable[[Any, Sequence[PassResult], Optional[dict]], List[str]]
    #: Whether ``--seed`` changes the inputs (reproduce_all takes no seed).
    seeded: bool = True


def _diff(label: str, got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """One line per key of ``want`` that ``got`` does not reproduce."""
    return [
        f"{label}: {key} differs from the reference"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


# ----------------------------------------------------------------------
# reproduce_cold / reproduce_warm
# ----------------------------------------------------------------------
#: 3 text stages + 4 panels (text and CSV) + 4 ablations.
N_ARTIFACTS = 15

#: The abstract's claim, checked on the batch results at uniform 0.5 N_c.
PAPER_BAND = {"power_saving": (0.25, 0.50), "throughput_loss": (-1.0, 0.05)}


@dataclass
class ReproduceState:
    kwargs: Dict[str, Any]
    runs: int
    #: Warm only: the filled cache and the artifacts the fill produced.
    cache_dir: Optional[Path] = None
    reference: Dict[str, str] = field(default_factory=dict)


def _reproduce_state(quick: bool) -> ReproduceState:
    if quick:
        loads: Tuple[float, ...] = (0.5,)
        plan = MeasurementPlan(warmup=200, measure=400, drain_limit=400)
    else:
        # The paper's plan: the abstract's band only holds at full length.
        loads = (0.1, 0.5, 0.9)
        plan = MeasurementPlan(warmup=8000, measure=10000, drain_limit=16000)
    runs = len(FIGURE_PATTERNS) * len(POLICIES) * len(loads)
    return ReproduceState({"loads": loads, "plan": plan}, runs)


def _paper_band(csv_path: Path) -> Dict[str, float]:
    with csv_path.open(newline="", encoding="utf-8") as fh:
        rows = {
            r["policy"]: r for r in csv.DictReader(fh) if float(r["load"]) == 0.5
        }
    base, ours = rows["NP-NB"], rows["P-B"]
    return {
        "power_saving": 1.0 - float(ours["power_mw"]) / float(base["power_mw"]),
        "throughput_loss": 1.0 - float(ours["throughput"]) / float(base["throughput"]),
    }


def _reproduce(
    state: ReproduceState, out: Path, cache: RunCache, timed: Callable[[], Stopwatch]
) -> PassResult:
    before = cache.persistent_stats()
    with timed() as watch:
        written = reproduce_all(
            out, jobs=1, cache=cache, engine="batch",
            log=lambda line: None, **state.kwargs,
        )
    after = cache.persistent_stats()
    digests = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in sorted(written.items())
        if path.is_file()
    }
    return PassResult(
        wall_s=watch.seconds,
        runs=state.runs,
        sim_cycles=state.runs * state.kwargs["plan"].hard_end,
        latencies=[watch.seconds],
        attempted=state.runs + N_ARTIFACTS,
        failed=N_ARTIFACTS - len(digests),
        outputs={
            "artifacts": digests,
            "paper_band": _paper_band(written["fig5_uniform.csv"]),
        },
        cache={
            **{k: after[k] - before[k] for k in ("hits", "misses", "puts")},
            "disk_bytes": cache.disk_bytes(),
        },
    )


def _cold_setup(seed: int, quick: bool, work: Path) -> ReproduceState:
    return _reproduce_state(quick)


def _cold_pass(
    state: ReproduceState, work: Path, timed: Callable[[], Stopwatch]
) -> PassResult:
    return _reproduce(state, work / "out", RunCache(work / "cache"), timed)


def _warm_setup(seed: int, quick: bool, work: Path) -> ReproduceState:
    state = _reproduce_state(quick)
    state.cache_dir = work / "cache"
    fill = _reproduce(state, work / "fill", RunCache(state.cache_dir), Stopwatch)
    state.reference = fill.outputs["artifacts"]
    return state


def _warm_pass(
    state: ReproduceState, work: Path, timed: Callable[[], Stopwatch]
) -> PassResult:
    return _reproduce(state, work / "out", RunCache(state.cache_dir), timed)


def _reproduce_check(
    state: ReproduceState, passes: Sequence[PassResult], golden: Optional[dict]
) -> List[str]:
    out: List[str] = []
    warm = state.cache_dir is not None
    for i, p in enumerate(passes):
        label = f"pass {i}"
        if warm:
            out += _diff(f"{label} vs fill", p.outputs["artifacts"], state.reference)
            if (p.cache["hits"], p.cache["misses"]) != (state.runs, 0):
                out.append(f"{label}: cache {p.cache} is not {state.runs} hits / 0 misses")
        elif (p.cache["misses"], p.cache["puts"]) != (state.runs, state.runs):
            out.append(f"{label}: cache {p.cache} is not {state.runs} misses and puts")
        if len(state.kwargs["loads"]) > 1:  # the band needs the full-length plan
            for key, (lo, hi) in sorted(PAPER_BAND.items()):
                if not lo <= p.outputs["paper_band"][key] < hi:
                    out.append(
                        f"{label}: {key}={p.outputs['paper_band'][key]:.3f} "
                        f"outside the paper's [{lo}, {hi})"
                    )
        if golden is not None:
            out += _diff(f"{label} vs golden", p.outputs["artifacts"], golden["artifacts"])
    return out


# ----------------------------------------------------------------------
# detailed_xval
# ----------------------------------------------------------------------
#: (pattern, load, policy); the detailed engine models static RWA only.
XVAL_POINTS = (("uniform", 0.4, "P-NB"), ("complement", 0.8, "NP-NB"))
#: Detailed-vs-fast bands the tier-1 cross-validation tests already use.
XVAL_THR_BAND = 0.05
XVAL_LAT_BAND = 0.30


def _xval_setup(seed: int, quick: bool, work: Path) -> List[tuple]:
    size = 4 if quick else 8
    topology = ERapidTopology(boards=size, nodes_per_board=size)
    plan = (
        MeasurementPlan(warmup=500, measure=1000, drain_limit=1500)
        if quick
        else MeasurementPlan(warmup=1000, measure=2000, drain_limit=3000)
    )
    return [
        (
            ERapidConfig(topology=topology, policy=POLICIES[policy]),
            WorkloadSpec(pattern=pattern, load=load, seed=seed),
            plan,
        )
        for pattern, load, policy in XVAL_POINTS
    ]


def _xval_pass(
    points: List[tuple], work: Path, timed: Callable[[], Stopwatch]
) -> PassResult:
    results: Dict[str, Any] = {}
    latencies: List[float] = []
    with timed() as watch:
        for config, workload, plan in points:
            start = perf_counter()
            for engine in (DetailedEngine, FastEngine):
                label = f"{workload.pattern}@{workload.load}/{engine.__name__}"
                results[label] = engine(config, workload, plan).run()
            # One operation is one cross-validated point (both engines).
            latencies.append(perf_counter() - start)
    thr_err: List[float] = []
    lat_err: List[float] = []
    for _, workload, _ in points:
        detailed, fast = (
            results[f"{workload.pattern}@{workload.load}/{e.__name__}"]
            for e in (DetailedEngine, FastEngine)
        )
        thr_err.append(abs(detailed.throughput - fast.throughput) / fast.throughput)
        lat_err.append(abs(detailed.avg_latency - fast.avg_latency) / fast.avg_latency)
    return PassResult(
        wall_s=watch.seconds,
        runs=len(results),
        sim_cycles=sum(plan.hard_end for _, _, plan in points) * 2,
        latencies=latencies,
        attempted=len(results),
        outputs={
            "fingerprints": {
                label: sweep_fingerprint({"run": [r]})
                for label, r in sorted(results.items())
            },
            "thr_err": thr_err,
            "lat_err": lat_err,
        },
        xval_thr_err=max(thr_err),
    )


def _xval_check(
    points: List[tuple], passes: Sequence[PassResult], golden: Optional[dict]
) -> List[str]:
    out: List[str] = []
    for i, p in enumerate(passes):
        if max(p.outputs["thr_err"]) > XVAL_THR_BAND:
            out.append(f"pass {i}: detailed-vs-fast throughput error {p.outputs['thr_err']}")
        # Latency is only comparable below saturation (the 0.4 N_c point).
        if p.outputs["lat_err"][0] > XVAL_LAT_BAND:
            out.append(f"pass {i}: detailed-vs-fast latency error {p.outputs['lat_err'][0]:.3f}")
        out += _diff(f"pass {i} vs pass 0", p.outputs["fingerprints"],
                     passes[0].outputs["fingerprints"])
        if golden is not None:
            out += _diff(f"pass {i} vs golden", p.outputs["fingerprints"],
                         golden["fingerprints"])
    return out


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
SERVICE_PATTERNS = ("uniform", "complement", "butterfly", "perfect_shuffle")
SERVICE_ENGINES = ("fast", "batch")
_TWO, _FOUR = ("NP-NB", "P-B"), ("NP-NB", "P-NB", "NP-B", "P-B")
#: One job family per (pattern, engine): ``(loads, policies)`` of each job
#: in submission order, so that every job's cache outcome is fixed.
SERVICE_FAMILY = (
    ((0.2, 0.5), _TWO),        # fresh: 4 misses
    ((0.2, 0.5), _TWO),        # exact duplicate right behind: in-flight dedup
    ((0.2, 0.5, 0.8), _FOUR),  # overlaps the first: 4 hits, 8 misses
    ((0.5, 0.8), _TWO),        # a new spec, yet all 4 runs are on disk
    ((0.3,), _FOUR),           # fresh: 4 misses
    ((0.1, 0.9), _TWO),        # fresh: 4 misses
    ((0.1, 0.9), _FOUR),       # overlaps: 4 hits, 4 misses
    ((0.2, 0.5, 0.8), _FOUR),  # exact duplicate, later: 12 hits from disk
)
INTERACTIVE_SHARE = 0.3


def _service_setup(seed: int, quick: bool, work: Path) -> List[JobSpec]:
    """The job list: one :data:`SERVICE_FAMILY` per (pattern, engine),
    merged in seed-drawn order with each family's own order kept.

    Which job pays for a shared run and which finds it cached is thereby
    the same for every seed, so passes of different seeds do the same work
    job by job (the pipeline compares runs of different seeds); the seed
    picks the simulation seed, how the families interleave, and which
    families are interactive.
    """
    rng = random.Random(seed)
    if quick:
        patterns, size, plan = SERVICE_PATTERNS[:2], 2, (200.0, 400.0, 600.0)
    else:
        patterns, size, plan = SERVICE_PATTERNS, 4, (500.0, 1000.0, 1500.0)
    families = []
    for pattern in patterns:
        for engine in SERVICE_ENGINES:
            priority = "interactive" if rng.random() < INTERACTIVE_SHARE else "bulk"
            families.append(iter([
                JobSpec(
                    pattern=pattern, loads=loads, policies=policies, engine=engine,
                    boards=size, nodes_per_board=size, seed=seed, priority=priority,
                    warmup=plan[0], measure=plan[1], drain_limit=plan[2],
                )
                for loads, policies in SERVICE_FAMILY
            ]))
    turns = [f for f in range(len(families)) for _ in SERVICE_FAMILY]
    rng.shuffle(turns)
    return [next(families[f]) for f in turns]


def _service_pass(
    jobs: List[JobSpec], work: Path, timed: Callable[[], Stopwatch]
) -> PassResult:
    cache = RunCache(work / "cache")
    store = ArtifactStore(work / "store")
    service = SweepService(cache, store, jobs=POOL_WIDTH, queue_depth=16)
    feed = iter(jobs)
    lock = threading.Lock()
    #: (seconds, spec, handle or None, execution or the error).
    done: List[tuple] = []

    def client() -> None:
        # Closed loop: the next job is submitted when wait() returns.
        while True:
            with lock:
                spec = next(feed, None)
            if spec is None:
                return
            start = perf_counter()
            handle = None
            try:
                handle = service.submit(spec)
                outcome: Any = handle.wait(timeout=JOB_TIMEOUT_S)
            except (QueueFullError, JobFailedError, TimeoutError) as exc:
                outcome = exc
            with lock:
                done.append((perf_counter() - start, spec, handle, outcome))

    with timed() as watch:
        service.start()
        clients = [
            threading.Thread(target=client, name=f"client-{k}") for k in range(2)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
    service.stop()

    failed = 0
    fingerprints: Dict[str, List[str]] = {}
    manifests: Dict[str, dict] = {}
    for _, spec, handle, outcome in done:
        if isinstance(outcome, Exception):
            failed += 1
            continue
        fingerprints.setdefault(handle.key, []).append(outcome.fingerprint)
        if handle.job_id not in manifests:
            try:
                manifests[handle.job_id] = store.read_manifest(handle.job_id)
            except ServiceError:
                failed += 1
    ok = [d for d in done if not isinstance(d[3], Exception)]
    counts = [m["counts"] for m in manifests.values()]
    timings = [m["timings"] for m in manifests.values()]
    stats = cache.persistent_stats()
    return PassResult(
        wall_s=watch.seconds,
        runs=sum(spec.total_runs for _, spec, _, _ in ok),
        sim_cycles=sum(spec.total_runs * spec.plan().hard_end for _, spec, _, _ in ok),
        latencies=[d[0] for d in done],
        attempted=len(jobs),
        failed=failed + len(jobs) - len(done),
        outputs={
            "fingerprints": {k: v[0] for k, v in sorted(fingerprints.items())},
            "disagree": sorted(k for k, v in fingerprints.items() if len(set(v)) != 1),
            "bad_counts": [
                m["job_id"] for m in manifests.values()
                if not (
                    m["counts"]["hits"] + m["counts"]["misses"]
                    == m["counts"]["total"] == len(m["runs"])
                    and m["counts"]["executed"] == m["counts"]["misses"]
                )
            ],
        },
        cache={
            **{k: stats[k] for k in ("hits", "misses", "puts")},
            "disk_bytes": cache.disk_bytes(),
        },
        service={
            "jobs": len(done),
            "deduped": sum(1 for _, _, h, _ in ok if h.deduped),
            "rejected": sum(1 for d in done if isinstance(d[3], QueueFullError)),
            "failed": failed,
            "runs_executed": sum(c["executed"] for c in counts),
            "runs_cached": sum(c["hits"] for c in counts),
            "queue_waits": [t["started_at"] - t["submitted_at"] for t in timings],
        },
    )


def _service_check(
    jobs: List[JobSpec], passes: Sequence[PassResult], golden: Optional[dict]
) -> List[str]:
    out: List[str] = []
    for i, p in enumerate(passes):
        out += [f"pass {i}: duplicate submissions of {key[:12]} disagree"
                for key in p.outputs["disagree"]]
        out += [f"pass {i}: manifest {j} counts do not add up"
                for j in p.outputs["bad_counts"]]
        out += _diff(f"pass {i} vs pass 0", p.outputs["fingerprints"],
                     passes[0].outputs["fingerprints"])
        if golden is not None:
            out += _diff(f"pass {i} vs golden", p.outputs["fingerprints"],
                         golden["fingerprints"])
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "reproduce_cold",
            "the headline command on an empty cache: core.batch does ~3/4 of "
            "the work (loads 0.1/0.5/0.9 span skip-friendly, mid, saturated)",
            _cold_setup, _cold_pass, _reproduce_check, seeded=False,
        ),
        Workload(
            "reproduce_warm",
            "the same call on a filled cache (48/48 hits): core.batch idle, "
            "Fig 3 + ablations on core.engine + sim and cache reads remain",
            _warm_setup, _warm_pass, _reproduce_check, seeded=False,
        ),
        Workload(
            "detailed_xval",
            "the only workload where core.detailed + network + sim.cycle do "
            "the work; also the accuracy reference (flit vs packet model)",
            _xval_setup, _xval_pass, _xval_check,
        ),
        Workload(
            "service_mix",
            "closed loop of 2 clients over one SweepService: duplicate, "
            "overlapping and fresh jobs; cache writes, pool start-up, publish",
            _service_setup, _service_pass, _service_check,
        ),
    )
}
