"""CLI tests (run through main() directly; output captured via capsys)."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--pattern", "complement", "--policy", "P-B"])
    assert args.command == "run"
    assert args.pattern == "complement"


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_rejects_unknown_pattern():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--pattern", "zipf"])


def test_cli_rwa(capsys):
    assert main(["rwa", "--boards", "4"]) == 0
    out = capsys.readouterr().out
    assert "λ3^(0)" in out and "λ1^(1)" in out


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "43.03" in out and "400 MHz" in out


def test_cli_run_small(capsys):
    rc = main([
        "run", "--pattern", "uniform", "--policy", "NP-NB",
        "--boards", "4", "--nodes", "4", "--load", "0.3",
        "--warmup", "2000", "--measure", "4000",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out and "power (mW)" in out


def test_cli_sweep_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = main([
        "sweep", "--pattern", "uniform", "--loads", "0.3",
        "--boards", "4", "--nodes", "4", "--csv", str(csv_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "headline ratios" in out
    assert csv_path.exists()


def test_cli_profile_fast_engine(capsys):
    rc = main([
        "profile", "--engine", "fast", "--policy", "NP-NB",
        "--boards", "2", "--nodes", "2", "--load", "0.3",
        "--warmup", "500", "--measure", "1000", "--top", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # cProfile's cumulative-time table, then the throughput summary.
    assert "cumulative" in out and "ncalls" in out
    assert "== profile summary ==" in out
    assert "packets/sec" in out and "events/sec" in out
    assert "packets delivered" in out
    # The fast engine is packet-level: no flit accounting.
    assert "flits/sec" not in out


def test_cli_profile_detailed_engine(capsys):
    rc = main([
        "profile", "--engine", "detailed", "--policy", "NP-NB",
        "--boards", "2", "--nodes", "2", "--load", "0.3",
        "--warmup", "500", "--measure", "1000", "--top", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "detailed engine" in out
    assert "packets/sec" in out and "events/sec" in out
    assert "flits routed" in out and "flits/sec" in out


def test_cli_profile_top_limits_table(capsys):
    rc = main([
        "profile", "--engine", "fast", "--policy", "NP-NB",
        "--boards", "2", "--nodes", "2", "--load", "0.2",
        "--warmup", "200", "--measure", "400", "--top", "1",
    ])
    assert rc == 0
    assert "List reduced" in capsys.readouterr().out


def test_cli_profile_rejects_unknown_engine(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "profile", "--engine", "warp",
            "--boards", "2", "--nodes", "2",
        ])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_profile_detailed_rejects_dbr_policy(capsys):
    rc = main([
        "profile", "--engine", "detailed", "--policy", "P-B",
        "--boards", "2", "--nodes", "2",
        "--warmup", "200", "--measure", "400",
    ])
    assert rc == 2
    assert "cannot run DBR" in capsys.readouterr().err


def test_cli_profile_batch_engine(capsys):
    rc = main([
        "profile", "--engine", "batch", "--policy", "P-B",
        "--pattern", "complement",
        "--boards", "4", "--nodes", "4", "--load", "0.3",
        "--warmup", "500", "--measure", "1000", "--top", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # One in-process run on the batch engine, with its own counters.
    assert "batch engine" in out and "cycles executed" in out
    assert "dispatch candidates per executed cycle" in out
    assert "== profile summary ==" in out
    # The batch tier is event-free by construction.
    import re

    assert re.search(r"events executed\s*: 0\b", out)


@pytest.mark.parametrize("engine", ["fast", "batch", "detailed"])
def test_cli_profile_packet_count_is_the_engines_labeled_delivered(
    engine, capsys
):
    """Every engine's profile reports one quantity: its own
    ``RunResult.labeled_delivered`` (fast and detailed used to count every
    delivered packet, warm-up and drain included, batch only labeled ones)."""
    import re

    from repro.core.batch import BatchEngine
    from repro.core.config import ERapidConfig
    from repro.core.detailed import DetailedEngine
    from repro.core.engine import FastEngine
    from repro.core.policies import POLICIES
    from repro.metrics.collector import MeasurementPlan
    from repro.network.topology import ERapidTopology
    from repro.traffic.workload import WorkloadSpec

    rc = main([
        "profile", "--engine", engine, "--policy", "NP-NB",
        "--pattern", "complement", "--boards", "2", "--nodes", "4",
        "--load", "0.3", "--warmup", "500", "--measure", "1000",
        "--top", "1",
    ])
    assert rc == 0
    printed = re.search(
        r"labeled packets delivered\s*: (\d+)", capsys.readouterr().out
    )
    assert printed is not None
    run = (
        ERapidConfig(
            topology=ERapidTopology(boards=2, nodes_per_board=4),
            policy=POLICIES["NP-NB"],
            seed=1,
        ),
        WorkloadSpec("complement", 0.3, seed=1),
        MeasurementPlan(warmup=500, measure=1000, drain_limit=2000),
    )
    own = {
        "fast": lambda: FastEngine(*run).run(),
        "batch": lambda: BatchEngine([run]).run()[0],
        "detailed": lambda: DetailedEngine(*run).run(),
    }[engine]()
    assert int(printed.group(1)) == own.labeled_delivered > 0


def test_cli_profile_batch_rejects_uncovered_point(capsys):
    rc = main([
        "profile", "--engine", "batch", "--policy", "P-B",
        "--pattern", "hotspot",
        "--boards", "4", "--nodes", "4", "--load", "0.3",
        "--warmup", "500", "--measure", "1000",
    ])
    assert rc == 2
    assert "does not cover" in capsys.readouterr().err


def test_cli_sweep_engine_batch(capsys):
    rc = main([
        "sweep", "--pattern", "complement", "--loads", "0.3",
        "--boards", "4", "--nodes", "4", "--engine", "batch",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "complement sweep" in out and "throughput" in out


def test_cli_sweep_verbose_prints_effective_shard_plan(capsys):
    rc = main([
        "sweep", "--pattern", "complement", "--loads", "0.3",
        "--boards", "4", "--nodes", "4", "--engine", "batch",
        "--jobs", "2", "--verbose",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shard plan:" in out and "jobs=2" in out
    # Without --verbose the plan stays out of the output.
    rc = main([
        "sweep", "--pattern", "complement", "--loads", "0.3",
        "--boards", "4", "--nodes", "4", "--engine", "batch",
    ])
    assert rc == 0
    assert "shard plan:" not in capsys.readouterr().out


def test_cli_sweep_shard_flags_parse():
    parser = build_parser()
    assert parser.parse_args(["sweep", "-v"]).verbose is True
    assert parser.parse_args(["sweep"]).verbose is False
    # The shard size is always the planner's: there is no override flag.
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--slab-shard", "16"])


def test_cli_cache_stats_by_engine(tmp_path, capsys):
    rc = main(["cache", "stats", "--by-engine", "--dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for engine in ("fast", "batch"):
        assert f"{engine} entries" in out
        assert f"{engine} bytes" in out
    assert "detailed entries" not in out  # no run is cached on it
    # Without the flag the breakdown stays out of the table.
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    assert "batch entries" not in capsys.readouterr().out


def test_cli_cache_stats_and_clear_cover_the_stage_store(tmp_path, capsys):
    from repro.experiments.ablations import ablate_limited_dbr
    from repro.perf.cache import RunCache

    stages = RunCache(tmp_path).stages()
    ablate_limited_dbr(caps=(1,), cache=stages)
    stages.flush_counters()
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    row = next(
        line for line in capsys.readouterr().out.splitlines() if "stages" in line
    )
    assert "1 entries" in row and "0 hits, 1 misses, 1 puts" in row
    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "cleared 1 entries" in capsys.readouterr().out
    assert stages.entry_count() == 0
    assert stages.persistent_stats()["puts"] == 0


def test_cli_engine_flags_parse():
    parser = build_parser()
    assert parser.parse_args(["sweep"]).engine == "fast"
    assert parser.parse_args(["reproduce", "--engine", "batch"]).engine == "batch"
    assert parser.parse_args(
        ["submit", "--spool", "s", "--engine", "batch"]
    ).engine == "batch"
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--engine", "detailed"])
