#!/usr/bin/env python3
"""A/B two revisions on one ledger workload, in alternating child runs.

    python3 benchmarks/ab.py REV_A REV_B --workload W --pairs N \\
        [--seconds S] [--seed K] [--trace]

Each revision is ``git archive``d into its own scratch directory (under
``$TMPDIR``), so both sides run committed files with fresh bytecode.
Pair ``i`` runs one ``benchmarks/ledger/run.py --workload W`` child per
side, A first on even pairs and B first on odd ones, so a drift of the
host's speed falls on both sides alike; with ``--trace`` each side also
runs one traced child per pair.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles over its untraced runs, the median of the per-pair
ratios B/A, how many pairs B won, the median change against the
metric's bound, and a verdict: ``B better`` (or ``B worse``) when B
wins (or loses) at least 9 of every 10 pairs and the medians differ by
more than A's interquartile range, ``unresolved`` otherwise.  With
``--trace`` every per-layer number is the median over all of a side's
traced runs.

No verdict is given, and the exit status is 2, when any run reports
``"correct": false`` or ``failed > 0``, or when the two sides' golden
status (``checked`` / ``stale``) differs.  With ``--trace`` the same
holds when a noise-free counter (:data:`COUNTERS`: events, runs, packets,
flits, batch cycles, cache puts) differs between the sides or between
two runs of one side: the sides did not do the same work, so their
timings do not compare.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path("benchmarks") / "ledger" / "run.py"
SIDES = ("A", "B")
#: Per-layer counts no timing noise can move; a traced run of either side
#: must read the same value of each as every other.
COUNTERS = (
    "sim.events",
    "core.engine.runs",
    "core.engine.pkts",
    "core.detailed.runs",
    "core.detailed.flits",
    "core.detailed.events",
    "core.batch.cycles_executed",
    "core.batch.cycles_skipped",
    "core.batch.events",
    "core.batch.blocked_retries",
    "perf.cache.puts",
)


@dataclass(frozen=True)
class ChildRun:
    """What one ``run.py --workload`` child reported."""

    correct: bool
    failed: int
    #: ``checked`` or ``stale``, as the child's ``workload`` line says.
    golden: str
    metrics: Dict[str, float]


def parse_child(stdout: str) -> ChildRun:
    """Read a child's output: its ``workload ... golden: X`` line and its
    last line, the JSON object ``BENCHMARK.json``'s contract asks for."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    golden = "missing"
    for line in lines:
        if line.startswith("workload ") and " golden: " in line:
            golden = line.rsplit(" golden: ", 1)[1].strip()
    return ChildRun(
        correct=bool(result["correct"]),
        failed=int(result["failed"]),
        golden=golden,
        metrics={k: float(v["value"]) for k, v in result["metrics"].items()},
    )


def refusal(runs: Dict[str, List[ChildRun]]) -> Optional[str]:
    """Why no verdict may be given, or None."""
    for side in SIDES:
        for i, run in enumerate(runs[side]):
            if not run.correct:
                return f"{side} run {i} reported correct: false"
            if run.failed:
                return f"{side} run {i} reported failed = {run.failed}"
    golden = {side: sorted({r.golden for r in runs[side]}) for side in SIDES}
    if golden["A"] != golden["B"]:
        return f"golden status differs: A {golden['A']}, B {golden['B']}"
    return None


def counter_mismatch(traced: Dict[str, List[ChildRun]]) -> Optional[str]:
    """The first :data:`COUNTERS` entry that differs between two traced
    runs (of one side or of the two), or None."""
    for name in COUNTERS:
        seen = {side: [r.metrics.get(name) for r in traced[side]] for side in SIDES}
        for side in SIDES:
            if len(set(seen[side])) > 1:
                return f"{name} differs between {side}'s traced runs: {seen[side]}"
        if seen["A"] and seen["B"] and seen["A"][0] != seen["B"][0]:
            return f"{name} differs: A {seen['A'][0]}, B {seen['B'][0]}"
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a: Sequence[float], b: Sequence[float], better: str) -> Dict[str, object]:
    """Pairwise comparison of one metric (``a[i]`` and ``b[i]`` ran as
    pair ``i``)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    gap = sign * (qa[1] - qb[1])  # > 0: B's median is the better one
    iqr = qa[2] - qa[0]
    if 10 * wins >= 9 * len(a) and gap > iqr:
        verdict = "B better"
    elif 10 * losses >= 9 * len(a) and -gap > iqr:
        verdict = "B worse"
    else:
        verdict = "unresolved"
    return {
        "a": qa,
        "b": qb,
        "ratio": statistics.median(y / x for x, y in zip(a, b)) if all(a) else float("nan"),
        "wins": wins,
        "pairs": len(a),
        "worse_by": -gap / qa[1] if qa[1] else float("nan"),
        "verdict": verdict,
    }


def report(
    plain: Dict[str, List[ChildRun]],
    traced: Dict[str, List[ChildRun]],
    declared: dict,
    out: Callable[[str], None] = print,
) -> int:
    """Print the comparison; returns the exit status (2: no verdict)."""
    why = refusal({s: plain[s] + traced[s] for s in SIDES}) or counter_mismatch(traced)
    if why is not None:
        out(f"ab: no verdict: {why}")
        return 2
    for decl in declared["end_to_end"]:
        name = decl["name"]
        a = [r.metrics[name] for r in plain["A"]]
        b = [r.metrics[name] for r in plain["B"]]
        c = compare(a, b, decl["better"])
        qa, qb = c["a"], c["b"]
        out(
            f"{name} ({decl['unit']}, {decl['better']} is better): "
            f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
            f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
            f"B/A {c['ratio']:.4f}  B won {c['wins']}/{c['pairs']}  "
            f"worse by {c['worse_by']:+.4f} (bound {decl['bound']})  "
            f"-> {c['verdict']}"
        )
    if traced["A"]:
        for decl in declared["per_layer"]:
            name = decl["name"]
            med = {
                s: statistics.median(r.metrics[name] for r in traced[s])
                for s in SIDES
            }
            ratio = med["B"] / med["A"] if med["A"] else float("nan")
            out(
                f"layer {name} ({decl['unit']}): A {med['A']:.6g}  "
                f"B {med['B']:.6g}  B/A {ratio:.4f}  "
                f"(medians of {len(traced['A'])} traced runs per side)"
            )
    return 0


def run_pairs(
    pairs: int, trace: bool, run: Callable[[str, bool], str],
    out: Callable[[str], None] = print,
) -> Tuple[Dict[str, List[ChildRun]], Dict[str, List[ChildRun]]]:
    """Alternate ``run(side, traced)`` children, A first on even pairs."""
    plain: Dict[str, List[ChildRun]] = {s: [] for s in SIDES}
    traced: Dict[str, List[ChildRun]] = {s: [] for s in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            plain[side].append(parse_child(run(side, False)))
            if trace:
                traced[side].append(parse_child(run(side, True)))
        walls = " ".join(
            f"{s}={plain[s][-1].metrics.get('wall_s', float('nan')):.4g}"
            for s in SIDES
        )
        out(f"pair {i + 1}/{pairs}: wall_s {walls}")
    return plain, traced


def checkout(rev: str, into: Path) -> str:
    """Extract ``rev``'s committed tree into ``into``; returns its sha."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", sha],
        check=True, capture_output=True,
    ).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return sha


def main(argv: Optional[Sequence[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", metavar="REV_A")
    parser.add_argument("rev_b", metavar="REV_B")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in declared["workloads"]]
    )
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {}
        for side, rev in zip(SIDES, (args.rev_a, args.rev_b)):
            trees[side] = Path(scratch) / side
            print(f"{side}: {rev} = {checkout(rev, trees[side])}")

        def run(side: str, traced: bool) -> str:
            cmd = [
                sys.executable, str(LEDGER), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "1" if traced else "0",
            ]
            proc = subprocess.run(
                cmd, cwd=trees[side], env=env, stdout=subprocess.PIPE, text=True,
                check=False,
            )
            if proc.returncode:
                sys.stdout.write(proc.stdout)
                raise SystemExit(f"ab: {side} child exited with {proc.returncode}")
            return proc.stdout

        plain, traced = run_pairs(args.pairs, args.trace, run)
    print(
        f"ab: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"pairs={args.pairs} cpu_count={os.cpu_count()}"
    )
    return report(plain, traced, declared)


if __name__ == "__main__":
    sys.exit(main())
