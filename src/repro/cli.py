"""Command-line interface.

::

    erapid run       --pattern complement --policy P-B --load 0.5
    erapid profile   --pattern uniform --load 0.4 [--engine fast|batch|detailed] [--top 25]
    erapid sweep     --pattern uniform --loads 0.1,0.3,0.5 [--jobs N] [--engine fast|batch] [-v] [--csv out.csv]
    erapid reproduce --out results/ [--jobs N] [--no-cache] [--engine fast|batch]
    erapid fig3
    erapid table1
    erapid rwa       --boards 8
    erapid ablate    --which window|thresholds|levels|limited-dbr|smoothing
    erapid cache     stats|path|clear [--dir DIR] [--by-engine]
    erapid serve     --spool DIR [--jobs N] [--once | --idle-exit S]
    erapid submit    --spool DIR [--kind sweep|run] [--loads ...] [--policies ...]
    erapid jobs      --spool DIR [--job KEY] [--wait S]

(Also runnable as ``python -m repro``.)

Every ``--engine`` flag takes its choices from the engine table,
:data:`repro.perf.engines.ENGINES`: ``profile`` offers every engine,
``sweep``, ``reproduce`` and ``submit`` the cached ones.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.erapid import ERapidSystem
from repro.core.policies import POLICIES
from repro.metrics.collector import MeasurementPlan
from repro.metrics.report import format_kv
from repro.perf.engines import CACHED, DEFAULT_ENGINE, ENGINES
from repro.traffic.patterns import PATTERNS
from repro.traffic.workload import WorkloadSpec

__all__ = ["main", "build_parser"]


def _engine_flag(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    """The one ``--engine`` option; ``names`` come from the engine table."""
    parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, choices=names,
        help="engine that runs the points: the event-driven fast engine "
        "(default), the vectorized batch engine (a point it does not cover "
        "runs on fast) or the flit-level detailed engine (profile only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erapid",
        description="E-RAPID power-aware reconfigurable optical interconnect "
        "simulator (reproduction of Kodi & Louri, IPPS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one simulation run")
    run.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
    run.add_argument("--policy", default="P-B", choices=sorted(POLICIES))
    run.add_argument("--load", type=float, default=0.5)
    run.add_argument("--boards", type=int, default=8)
    run.add_argument("--nodes", type=int, default=8)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--warmup", type=float, default=8000)
    run.add_argument("--measure", type=float, default=12000)

    prof = sub.add_parser(
        "profile", help="one run under cProfile (hot-path inspection)"
    )
    prof.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
    prof.add_argument("--policy", default="P-B", choices=sorted(POLICIES))
    prof.add_argument("--load", type=float, default=0.4)
    prof.add_argument("--boards", type=int, default=8)
    prof.add_argument("--nodes", type=int, default=8)
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument("--warmup", type=float, default=2000)
    prof.add_argument("--measure", type=float, default=6000)
    _engine_flag(prof, tuple(ENGINES))
    prof.add_argument(
        "--top", type=int, default=25,
        help="rows of the cumulative-time table to print (default: 25)",
    )

    sweep = sub.add_parser("sweep", help="load sweep (one Figure 5/6 panel)")
    sweep.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
    sweep.add_argument("--loads", default="0.1,0.3,0.5,0.7,0.9")
    sweep.add_argument("--boards", type=int, default=8)
    sweep.add_argument("--nodes", type=int, default=8)
    sweep.add_argument("--csv", default=None, help="write results to CSV")
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run the (policy x load) matrix in N worker processes "
        "(bit-identical to serial)",
    )
    _engine_flag(sweep, CACHED)
    sweep.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the effective shard plan before running (batch engine)",
    )

    sub.add_parser("table1", help="regenerate Table 1")
    sub.add_parser("fig3", help="design-space time series (Figure 3)")

    repro_cmd = sub.add_parser(
        "reproduce", help="regenerate every table and figure into a directory"
    )
    repro_cmd.add_argument("--out", default="results")
    repro_cmd.add_argument("--loads", default="0.1,0.3,0.5,0.7,0.9")
    repro_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep stage (bit-identical to serial)",
    )
    repro_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed run cache "
        "($ERAPID_CACHE_DIR or ~/.cache/erapid/runs)",
    )
    _engine_flag(repro_cmd, CACHED)

    rwa = sub.add_parser("rwa", help="print the static RWA (Figure 1)")
    rwa.add_argument("--boards", type=int, default=4)

    ablate = sub.add_parser("ablate", help="run an ablation study")
    ablate.add_argument(
        "--which",
        default="window",
        choices=["window", "thresholds", "levels", "limited-dbr", "smoothing"],
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the content-addressed run cache"
    )
    cache_cmd.add_argument(
        "action", choices=("stats", "path", "clear"),
        help="stats: counters + entry count + on-disk size; path: print "
        "the store directory; clear: delete every entry and reset counters",
    )
    cache_cmd.add_argument(
        "--dir", default=None,
        help="cache directory (default: $ERAPID_CACHE_DIR or "
        "~/.cache/erapid/runs)",
    )
    cache_cmd.add_argument(
        "--by-engine", action="store_true",
        help="with stats: break entry count and on-disk bytes down by the "
        "engine that produced each entry",
    )

    serve = sub.add_parser(
        "serve", help="run the sweep service over a job-spool directory"
    )
    serve.add_argument(
        "--spool", required=True,
        help="spool directory (incoming submissions + mirrored status)",
    )
    serve.add_argument(
        "--artifacts", default=None,
        help="artifact store root for manifests and the audit log "
        "(default: <spool>/artifacts-store)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="run-cache directory (default: $ERAPID_CACHE_DIR or "
        "~/.cache/erapid/runs)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes of the service's one pool, and the most "
        "jobs run at once (jobs sharing no run)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="bounded job-queue depth; submissions beyond it are rejected "
        "(backpressure)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="ingest the current spool contents, drain, and exit",
    )
    serve.add_argument(
        "--poll", type=float, default=0.2,
        help="spool scan interval in seconds (default: 0.2)",
    )
    serve.add_argument(
        "--idle-exit", type=float, default=None,
        help="exit after this many seconds with no work (default: run "
        "forever)",
    )

    submit = sub.add_parser(
        "submit", help="drop a job spec into a serve spool directory"
    )
    submit.add_argument("--spool", required=True, help="spool directory")
    submit.add_argument(
        "--spec", default=None,
        help="JSON job-spec file to submit verbatim (e.g. the `spec` "
        "object of a past manifest); other spec flags are ignored",
    )
    submit.add_argument("--kind", default="sweep", choices=("sweep", "run"))
    submit.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
    submit.add_argument("--loads", default="0.1,0.3,0.5,0.7,0.9")
    submit.add_argument(
        "--policies", default="NP-NB,P-NB,NP-B,P-B",
        help="comma-separated policy list",
    )
    submit.add_argument("--boards", type=int, default=8)
    submit.add_argument("--nodes", type=int, default=8)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument("--warmup", type=float, default=8000)
    submit.add_argument("--measure", type=float, default=12000)
    submit.add_argument("--drain-limit", type=float, default=24000)
    submit.add_argument(
        "--priority", default="", choices=("", "interactive", "bulk"),
        help="queue priority (default: interactive for run, bulk for sweep)",
    )
    _engine_flag(submit, CACHED)

    jobs_cmd = sub.add_parser(
        "jobs", help="list or inspect jobs mirrored in a serve spool"
    )
    jobs_cmd.add_argument("--spool", required=True, help="spool directory")
    jobs_cmd.add_argument(
        "--job", default=None, help="job key (as printed by `erapid submit`)"
    )
    jobs_cmd.add_argument(
        "--wait", type=float, default=None,
        help="with --job: poll until the job reaches a terminal state or "
        "this many seconds elapse",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "run":
        system = ERapidSystem.build(
            boards=args.boards, nodes_per_board=args.nodes, policy=args.policy,
            seed=args.seed,
        )
        plan = MeasurementPlan(
            warmup=args.warmup, measure=args.measure, drain_limit=2 * args.measure
        )
        result = system.run(
            WorkloadSpec(pattern=args.pattern, load=args.load, seed=args.seed), plan
        )
        print(format_kv(
            {
                "system": system.describe(),
                "workload": f"{args.pattern} @ {args.load} N_c",
                "throughput (pkt/node/cyc)": result.throughput,
                "offered (pkt/node/cyc)": result.offered,
                "avg latency (cycles)": result.avg_latency,
                "p99 latency (cycles)": result.p99_latency,
                "power (mW)": result.power_mw,
                "DBR grants": result.extra["grants"],
                "DPM transitions": result.extra["dpm_transitions"],
            },
            title="== E-RAPID run ==",
        ))
        return 0

    if args.command == "profile":
        import cProfile
        import io
        import pstats
        import time

        from repro.core.config import ERapidConfig
        from repro.network.topology import ERapidTopology

        entry = ENGINES[args.engine]
        config = ERapidConfig(
            topology=ERapidTopology(boards=args.boards, nodes_per_board=args.nodes),
            policy=POLICIES[args.policy],
            seed=args.seed,
        )
        workload = WorkloadSpec(
            pattern=args.pattern, load=args.load, seed=args.seed
        )
        plan = MeasurementPlan(
            warmup=args.warmup, measure=args.measure, drain_limit=2 * args.measure
        )
        gap = entry.covers(config, workload, plan)
        if gap is not None:
            print(
                f"erapid profile: the {args.engine} engine does not cover this "
                f"point ({gap})",
                file=sys.stderr,
            )
            return 2
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        result, counters = entry.profile(config, workload, plan)
        profiler.disable()
        elapsed = time.perf_counter() - start
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(args.top)
        print(buf.getvalue().rstrip())
        print()
        summary = {
            "system": f"{config.describe()} on the {args.engine} engine",
            "workload": f"{args.pattern} @ {args.load} N_c",
            "wall time (s)": elapsed,
        }
        delivered = result.labeled_delivered
        for label, value, per_sec in [
            ("labeled packets delivered", delivered, "labeled packets/sec"),
            ("events executed", int(result.extra["events"]), "events/sec"),
            *counters,
        ]:
            summary[label] = value
            if per_sec is not None:
                summary[per_sec] = value / elapsed if elapsed > 0 else 0.0
        print(format_kv(summary, title="== profile summary =="))
        return 0

    if args.command == "sweep":
        from repro.experiments.figures import FigurePanel
        from repro.experiments.io import sweep_rows, write_csv
        from repro.experiments.sweep import SweepSpec

        loads = tuple(float(x) for x in args.loads.split(","))
        spec = SweepSpec(
            pattern=args.pattern, loads=loads, boards=args.boards,
            nodes_per_board=args.nodes,
        )

        def sweep_progress(policy: str, load: float, result) -> None:
            print(
                f"  {policy:>5} load={load:.1f} thr={result.throughput:.4f} "
                f"power={result.power_mw:.1f}mW"
            )

        shard_plan = ENGINES[args.engine].plan
        if args.verbose and shard_plan is not None:
            print(shard_plan(spec.tasks(), jobs=args.jobs).describe())
        panel = FigurePanel.run(
            spec, progress=sweep_progress, jobs=args.jobs, engine=args.engine
        )
        print(panel.render())
        if args.csv:
            path = write_csv(args.csv, sweep_rows(panel.results))
            print(f"\nwrote {path}")
        return 0

    if args.command == "table1":
        from repro.experiments.table1 import render_table1, table1_checks

        table1_checks()
        print(render_table1())
        return 0

    if args.command == "fig3":
        from repro.experiments.fig3 import render_fig3, run_fig3

        print(render_fig3(run_fig3()))
        return 0

    if args.command == "reproduce":
        from repro.experiments.runner import reproduce_all

        loads = tuple(float(x) for x in args.loads.split(","))
        reproduce_all(
            args.out, loads=loads, jobs=args.jobs, cache=not args.no_cache,
            engine=args.engine,
        )
        return 0

    if args.command == "rwa":
        from repro.optics.rwa import StaticRWA

        rwa = StaticRWA(args.boards)
        rwa.validate()
        print(rwa.render_table())
        return 0

    if args.command == "ablate":
        from repro.experiments import ablations

        fn = {
            "window": ablations.ablate_window,
            "thresholds": ablations.ablate_thresholds,
            "levels": ablations.ablate_power_levels,
            "limited-dbr": ablations.ablate_limited_dbr,
            "smoothing": ablations.ablate_dpm_smoothing,
        }[args.which]
        _, table = fn()
        print(table)
        return 0

    if args.command == "cache":
        from repro.perf.cache import RunCache

        cache = RunCache(args.dir)
        if args.action == "path":
            print(cache.root)
            return 0
        stages = cache.stages()
        if args.action == "clear":
            removed = cache.clear() + stages.clear()
            cache.reset_counters()
            stages.reset_counters()
            print(f"cleared {removed} entries from {cache.root}")
            return 0
        counters = cache.persistent_stats()
        lookups = counters["hits"] + counters["misses"]
        hit_rate = f"{counters['hits'] / lookups:.1%}" if lookups else "n/a"
        rows = {
            "path": str(cache.root),
            "entries": cache.entry_count(),
            "on-disk bytes": cache.disk_bytes(),
            "hits": counters["hits"],
            "misses": counters["misses"],
            "puts": counters["puts"],
            "hit rate": hit_rate,
            "batched gets": counters["batched_gets"],
            "batched puts": counters["batched_puts"],
        }
        staged = stages.persistent_stats()
        rows["stages (fig3 + ablations)"] = (
            f"{stages.entry_count()} entries, {stages.disk_bytes()} bytes, "
            f"{staged['hits']} hits, {staged['misses']} misses, "
            f"{staged['puts']} puts"
        )
        if args.by_engine:
            for engine_name, bucket in cache.by_engine_stats().items():
                rows[f"{engine_name} entries"] = bucket["entries"]
                rows[f"{engine_name} bytes"] = bucket["bytes"]
        print(format_kv(rows, title="== run cache =="))
        return 0

    if args.command == "serve":
        from repro.perf.cache import RunCache
        from repro.service.artifacts import ArtifactStore
        from repro.service.orchestrator import SweepService
        from repro.service.spool import SpoolServer

        cache = RunCache(args.cache_dir)
        store = ArtifactStore(
            args.artifacts
            if args.artifacts is not None
            else str(Path(args.spool) / "artifacts-store")
        )
        service = SweepService(
            cache, store, jobs=args.jobs, queue_depth=args.queue_depth
        ).start()
        server = SpoolServer(args.spool, service, log=print)
        print(
            f"erapid serve: spool={server.spool} artifacts={store.root} "
            f"cache={cache.root} jobs={args.jobs} "
            f"queue-depth={args.queue_depth}"
        )
        try:
            if args.once:
                server.serve_once()
            else:
                server.serve_forever(
                    poll=args.poll, idle_exit=args.idle_exit
                )
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            print("interrupted; draining current job ...")
        finally:
            service.stop()
        return 0

    if args.command == "submit":
        import json

        from repro.errors import JobSpecError
        from repro.service.spec import JobSpec
        from repro.service.spool import submit_to_spool

        try:
            if args.spec is not None:
                data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
                spec = JobSpec.from_dict(data)
            else:
                spec = JobSpec(
                    kind=args.kind,
                    pattern=args.pattern,
                    loads=tuple(float(x) for x in args.loads.split(",")),
                    policies=tuple(args.policies.split(",")),
                    boards=args.boards,
                    nodes_per_board=args.nodes,
                    seed=args.seed,
                    warmup=args.warmup,
                    measure=args.measure,
                    drain_limit=args.drain_limit,
                    priority=args.priority,
                    engine=args.engine,
                )
        except (OSError, ValueError, JobSpecError) as exc:
            print(f"erapid submit: bad job spec: {exc}", file=sys.stderr)
            return 2
        key = submit_to_spool(args.spool, spec)
        # Stdout is exactly the job key so shells can capture it.
        print(key)
        return 0

    if args.command == "jobs":
        import time as _time

        from repro.service.spool import list_statuses, read_status

        terminal = ("completed", "failed", "rejected", "invalid")
        if args.job is None:
            statuses = list_statuses(args.spool)
            if not statuses:
                print("no jobs in spool")
                return 0
            for s in statuses:
                counts = s.get("counts") or {}
                hit_note = (
                    f" hits={counts.get('hits')}/{counts.get('total')}"
                    if counts
                    else ""
                )
                shards = s.get("shards") or {}
                shard_note = (
                    f" shards={shards.get('batch')}"
                    f" covered={shards.get('batch_runs')}"
                    if shards
                    else ""
                )
                print(
                    f"{s.get('job_key', '?')[:12]}  "
                    f"{s.get('state', '?'):<9}  "
                    f"{s.get('kind', '?'):<5}  "
                    f"runs={s.get('runs_done', 0)}/{s.get('runs_total', '?')}"
                    f"{hit_note}{shard_note}"
                )
            return 0
        deadline = (
            _time.monotonic() + args.wait if args.wait is not None else None
        )
        while True:
            status = read_status(args.spool, args.job)
            state = status.get("state") if status else None
            if state in terminal:
                break
            if deadline is None or _time.monotonic() >= deadline:
                if args.wait is not None:
                    print(
                        f"erapid jobs: job {args.job[:12]} still "
                        f"{state or 'unknown'} after {args.wait}s",
                        file=sys.stderr,
                    )
                    return 1
                break
            _time.sleep(0.2)
        if status is None:
            print(f"erapid jobs: no such job {args.job!r}", file=sys.stderr)
            return 1
        print(format_kv(
            {k: status[k] for k in sorted(status)},
            title=f"== job {args.job[:12]} ==",
        ))
        return 0 if status.get("state") == "completed" else 1

    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
