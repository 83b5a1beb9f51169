#!/usr/bin/env python3
"""One performance ledger for the E-RAPID simulator.

``python3 benchmarks/ledger/run.py`` runs the four workloads of
:mod:`workloads`, each in a child process of its own (so ``peak_rss_mb``
is per workload), untraced for the end-to-end metrics and traced for the
per-layer ones; it prints every metric by name with its unit, checks the
outputs, and writes ``out/ledger.json`` and ``out/spans-<workload>.jsonl``
beside this file.  One child is::

    run.py --workload NAME --seed N --seconds S --trace 0|1

whose last output line is the JSON object ``BENCHMARK.json``'s contract
asks for.  README.md says why these workloads, metrics and estimators.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()  # set-up time includes the imports below

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy  # noqa: E402

from repro.core.batch import BATCH_KERNEL_VERSION  # noqa: E402
from repro.sim.kernel import KERNEL_VERSION  # noqa: E402

from hostspeed import NOMINAL_S, HostSampler  # noqa: E402
from layers import PER_LAYER, SELF_TIME, Counts, layer_metrics, median_metrics, percentile  # noqa: E402
from spans import Tracer, check_spans, targets  # noqa: E402
from workloads import POOL_WIDTH, WORKLOADS, PassResult, Stopwatch, Workload  # noqa: E402

_IMPORT_S = perf_counter() - _T0

OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

#: Default length of one run's measured part; BENCHMARK.json's run_seconds.
RUN_SECONDS = 15

#: Set-up is repeated (and its median reported) while it stays cheap; an
#: expensive one — reproduce_warm's cache fill — is a single shot.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0

#: End-to-end metric -> (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "sim_cycles_per_s": ("1/s", "higher"),
    "job_latency_p50_s": ("s", "lower"),
    "job_latency_p90_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Layer groups (prefixes of self-time metrics) whose share of a traced
#: pass is printed (a workload should be dominated by the layer it is for).
SHARES: Dict[str, Tuple[str, ...]] = {
    "core.batch": ("core.batch.",),
    "core.engine": ("core.engine.",),
    "core.detailed": ("core.detailed.",),
    "experiments": ("experiments.",),
    "service+cache+executor+shards": (
        "service.", "perf.cache.", "perf.executor.self_s", "perf.shards.plan_s",
    ),
}

#: Output keys a golden entry pins (whichever a workload produces).
GOLDEN_KEYS = ("artifacts", "paper_band", "fingerprints")


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def best(samples: Sequence[float], better: str) -> float:
    """Best of the passes — the repo's best-of-N policy (README: noise)."""
    return min(samples) if better == "lower" else max(samples)


def fmt(value: float) -> str:
    """Counts in full, measurements to six significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def describe(samples: Sequence[float]) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (
        f"n={len(samples)} median={statistics.median(samples):.6g} "
        f"q1={q1:.6g} q3={q3:.6g} samples={[round(s, 6) for s in samples]}"
    )


def per_pass_samples(
    passes: Sequence[PassResult], factors: Sequence[float]
) -> Dict[str, List[float]]:
    """Per-pass end-to-end samples, in reference-host seconds
    (``factors``: :meth:`HostSampler.factor` of each pass)."""
    walls = [p.wall_s * f for p, f in zip(passes, factors)]
    return {
        "wall_s": walls,
        "runs_per_s": [p.runs / w for p, w in zip(passes, walls)],
        "sim_cycles_per_s": [p.sim_cycles / w for p, w in zip(passes, walls)],
        "job_latency_p50_s": [
            percentile(p.latencies, 0.5) * f for p, f in zip(passes, factors)
        ],
        "job_latency_p90_s": [
            percentile(p.latencies, 0.9) * f for p, f in zip(passes, factors)
        ],
    }


def peak_rss_mb() -> float:
    """Max resident set of this process and of its waited-for children."""
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


# ----------------------------------------------------------------------
# Golden outputs
# ----------------------------------------------------------------------
def golden_key(workload: Workload, seed: int, quick: bool) -> str:
    return (
        f"kernel={KERNEL_VERSION},batch={BATCH_KERNEL_VERSION},"
        f"seed={seed if workload.seeded else 'none'},{'quick' if quick else 'full'}"
    )


def load_golden(workload: Workload, seed: int, quick: bool) -> Optional[dict]:
    try:
        data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    key = golden_key(workload, seed, quick)
    return data.get("entries", {}).get(key, {}).get(workload.name)


def update_golden() -> int:
    """One pass of every workload, full and quick, seed 1 -> golden.json."""
    entries: Dict[str, Dict[str, dict]] = {}
    with _scratch("golden") as scratch:
        for quick in (False, True):
            for workload in WORKLOADS.values():
                work = Path(scratch) / f"{workload.name}-{int(quick)}"
                (work / "pass").mkdir(parents=True)
                state = workload.setup(1, quick, work)
                result = workload.run_pass(state, work / "pass", Stopwatch)
                wrong = workload.check(state, [result], None)
                if wrong or result.failed:
                    print(f"{workload.name}: refusing to pin wrong outputs: {wrong}")
                    return 1
                entries.setdefault(golden_key(workload, 1, quick), {})[workload.name] = {
                    k: result.outputs[k] for k in GOLDEN_KEYS if k in result.outputs
                }
                print(f"pinned {workload.name} ({'quick' if quick else 'full'})")
    GOLDEN.write_text(
        json.dumps(
            {"python": platform.python_version(), "numpy": numpy.__version__,
             "entries": entries},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    return 0


# ----------------------------------------------------------------------
# One run of one workload (the driver's unit)
# ----------------------------------------------------------------------
def _scratch(label: str) -> "tempfile.TemporaryDirectory[str]":
    """A private directory inside the checkout (never ~/.cache or /tmp),
    removed when the ``with`` block ends."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{label}-", dir=OUT / "tmp")


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, Any]:
    with _scratch(workload.name) as scratch:
        return _measure(workload, seed, seconds, trace, quick, Path(scratch))


def _measure(
    workload: Workload, seed: int, seconds: float, trace: bool, quick: bool,
    scratch: Path,
) -> Dict[str, Any]:
    name = workload.name
    setup_samples: List[float] = []
    state: Any = None
    while len(setup_samples) < SETUP_REPEATS and sum(setup_samples) < SETUP_BUDGET_S:
        work = scratch / f"setup{len(setup_samples)}"
        work.mkdir()
        start = perf_counter()
        state = workload.setup(seed, quick, work)
        setup_samples.append(perf_counter() - start)
    setup_s = _IMPORT_S + statistics.median(setup_samples)

    tracer = Tracer()
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    #: Host-speed factor of each pass, parallel to ``plain`` / ``traced``.
    plain_f: List[float] = []
    traced_f: List[float] = []
    layers: List[Dict[str, float]] = []
    books: List[Dict[str, object]] = []

    def one_pass(index: int, with_trace: bool) -> None:
        work = scratch / f"pass{index}"
        work.mkdir()
        begun = perf_counter()
        if not with_trace:
            plain.append(workload.run_pass(state, work, Stopwatch))
        else:
            counts = Counts()
            table = targets(counts.on_shard, counts.hooks())
            pass_id = f"{name}#{index}"
            result = workload.run_pass(
                state, work, partial(Stopwatch, partial(tracer.traced_pass, pass_id, table))
            )
            spans = tracer.pass_spans(pass_id)
            book = check_spans(spans)
            book["wrappers_left"] = Tracer.wrappers_left(table)
            book["ok"] = bool(book["ok"]) and not book["wrappers_left"]
            books.append(book)
            traced.append(result)
            layers.append(layer_metrics(spans, counts, result, POOL_WIDTH))
        (traced_f if with_trace else plain_f).append(host.factor(begun, perf_counter()))
        shutil.rmtree(work, ignore_errors=True)

    # End-to-end numbers always come from untraced passes; a traced run
    # alternates them with traced ones so the overhead is measured in
    # the same process on the same inputs.
    started = perf_counter()
    with HostSampler() as host:
        while not plain or perf_counter() - started < seconds:
            one_pass(len(plain) + len(traced), False)
            if trace:
                one_pass(len(plain) + len(traced), True)

    passes = plain + traced
    golden = load_golden(workload, seed, quick)
    wrong = workload.check(state, passes, golden)
    wrong += [f"trace: span bookkeeping failed: {b}" for b in books if not b["ok"]]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"workload {name}: seed={seed} passes={len(plain)}+{len(traced)} traced "
          f"cpu_count={os.cpu_count()} pool_width={POOL_WIDTH} "
          f"golden: {'checked' if golden is not None else 'stale'}")
    print(f"host {name}: raw wall_s {[round(p.wall_s, 4) for p in plain]} x "
          f"host-speed factors {[round(f, 4) for f in plain_f]} "
          f"(reference kernel {NOMINAL_S * 1e6:.0f} us nominal)")
    for line in wrong:
        print(f"mismatch {name}: {line}")
    print(f"check {name}: failed_frac = {failed / attempted:.6g} ratio "
          f"({failed}/{attempted}), result_mismatches = {len(wrong)} count")

    metrics: Dict[str, Dict[str, object]] = {}
    if not trace:
        samples = per_pass_samples(plain, plain_f)
        values = {k: best(v, END_TO_END[k][1]) for k, v in samples.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb()
        samples["setup_s"] = [_IMPORT_S + s for s in setup_samples]
        for metric, (unit, _) in END_TO_END.items():
            note = describe(samples[metric]) if metric in samples else "n=1"
            print(f"metric {name} {metric} = {fmt(values[metric])} {unit} [{note}]")
            metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        layer = median_metrics(layers)
        traced_wall = statistics.median(p.wall_s for p in traced)
        layer["trace.overhead_frac"] = (
            statistics.median(per_pass_samples(traced, traced_f)["wall_s"])
            / statistics.median(per_pass_samples(plain, plain_f)["wall_s"])
            - 1.0
        )
        for metric, (unit, _) in PER_LAYER.items():
            print(f"metric {name} {metric} = {fmt(layer[metric])} {unit}")
            metrics[metric] = {"value": layer[metric], "unit": unit}
        for book in books:
            print(f"spans {name}: {json.dumps(book, sort_keys=True)}")
        print(f"spans {name}: spans opened in pool workers are lost; batch "
              f"shards are covered by ShardReport.seconds (worker_busy_s)")
        for label, prefixes in SHARES.items():
            share = sum(layer[k] for k in SELF_TIME if k.startswith(prefixes)) / traced_wall
            print(f"share {name} {label} = {share:.4f} of traced wall_s")
        tracer.write(OUT / f"spans-{name}.jsonl")

    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The ledger: every workload, each in its own child
# ----------------------------------------------------------------------
def run_child(
    name: str, seed: int, seconds: float, trace: int, quick: bool, echo: bool = True
) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if echo or proc.returncode:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode:
        raise SystemExit(f"{name}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def host() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "pool_width": POOL_WIDTH,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def ledger(seed: int, seconds: float, quick: bool) -> int:
    print(f"host: {json.dumps(host(), sort_keys=True)} seconds={seconds} quick={quick}")
    summary: Dict[str, Any] = {
        "host": host(), "seed": seed, "seconds": seconds, "quick": quick,
        "estimator": "best of the passes in a run", "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        plain = run_child(name, seed, seconds, 0, quick)
        traced = run_child(name, seed, seconds, 1, quick)
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in (plain, traced))
        summary["workloads"][name] = {"end_to_end": plain, "per_layer": traced}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "ledger.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"ledger: wrote {OUT / 'ledger.json'}; {'ok' if ok else 'WRONG OUTPUTS'}")
    return 0 if ok else 1


def _spread(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_repeat(names: Sequence[str], runs: int, seconds: float, quick: bool) -> int:
    """Two interleaved sets of ``runs`` runs per workload (seeds 1..runs)
    must agree within BENCHMARK.json's bounds: each set's quartile spread
    (setup_s excepted) and set B's median against set A's."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"host: {json.dumps(host(), sort_keys=True)} runs={runs} seconds={seconds}")
    ok = True
    for name in names:
        sets: Dict[str, List[dict]] = {"A": [], "B": []}
        for i in range(runs):
            for label in ("AB", "BA")[i % 2]:
                sets[label].append(
                    run_child(name, i + 1, seconds, 0, quick, echo=False)["metrics"]
                )
        for decl in declared["end_to_end"]:
            metric, bound = decl["name"], decl["bound"]
            a, b = ([m[metric]["value"] for m in sets[s]] for s in "AB")
            sign = 1.0 if decl["better"] == "lower" else -1.0
            worse = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            # The pipeline does not hold setup_s to a spread, only to drift.
            spread = 0.0 if metric == "setup_s" else max(_spread(a), _spread(b))
            passed = worse <= bound and spread <= bound
            ok = ok and passed
            print(
                f"repeat {name} {metric}: A median={statistics.median(a):.6g} "
                f"spread={_spread(a):.4f} | B median={statistics.median(b):.6g} "
                f"spread={_spread(b):.4f} | B worse by {worse:+.4f} bound={bound} "
                f"{'ok' if passed else 'FAIL'}{'' if spread <= bound / 3 else ' (spread > bound/3)'}"
            )
            print(f"  A={[round(v, 5) for v in a]}")
            print(f"  B={[round(v, 5) for v in b]}")
    print(f"check-repeat: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process (the pipeline's "
                             "form); with --check-repeat: check only this one")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run repeats passes (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="with --workload: print the per-layer metrics of traced passes")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs, for the smoke test only")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--check-repeat", type=int, nargs="?", const=10, default=0,
                        metavar="RUNS")
    args = parser.parse_args(argv)
    if args.update_golden:
        return update_golden()
    if args.check_repeat:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return check_repeat(names, args.check_repeat, args.seconds, args.quick)
    if args.workload is None:
        return ledger(args.seed, args.seconds, args.quick)
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.quick
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
