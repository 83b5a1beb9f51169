"""Linter tests: exact rule codes and line numbers per fixture.

The on-disk fixtures under ``tests/analysis/fixtures/`` carry a
``# sim-lint: module=...`` marker so the scoped rules (SIM001/2/4/6) fire
outside the package tree; inline snippets pass ``module=`` directly.
"""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.linter import lint_paths, lint_source, module_name_for_path
from repro.analysis.rules import RULES, rule_for

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def codes_and_lines(findings):
    return [(f.code, f.line) for f in findings]


def lint_fixture(name):
    return lint_paths([FIXTURES / name], include_fixtures=True)


# ----------------------------------------------------------------------
# Per-rule fixtures: exact codes and line numbers
# ----------------------------------------------------------------------

def test_sim001_wallclock_fixture():
    findings = lint_fixture("bad_sim001_wallclock.py")
    assert codes_and_lines(findings) == [
        ("SIM001", 4),   # from time import perf_counter
        ("SIM001", 8),   # time.time()
        ("SIM001", 12),  # time.monotonic()
        ("SIM001", 12),  # perf_counter() via the from-import alias
    ]


def test_sim002_randomness_fixture():
    findings = lint_fixture("bad_sim002_randomness.py")
    assert codes_and_lines(findings) == [
        ("SIM002", 3),   # import random
        ("SIM002", 8),   # random.random()
        ("SIM002", 12),  # np.random.default_rng()
        ("SIM002", 16),  # np.random.uniform(...)
    ]


def test_sim003_mutable_default_fixture():
    findings = lint_fixture("bad_sim003_mutable_default.py")
    assert codes_and_lines(findings) == [
        ("SIM003", 4),   # values=[]
        ("SIM003", 9),   # table={}
        ("SIM003", 9),   # seen=set()
    ]


def test_sim004_float_eq_fixture():
    findings = lint_fixture("bad_sim004_float_eq.py")
    assert codes_and_lines(findings) == [
        ("SIM004", 6),   # sim.now == boundary
        ("SIM004", 10),  # delivered_at != ...
    ]


def test_sim005_reentry_fixture():
    findings = lint_fixture("bad_sim005_reentry.py")
    assert codes_and_lines(findings) == [
        ("SIM005", 6),   # sim.run() inside a process generator
        ("SIM005", 11),  # sim.run() inside a callback closure
    ]


def test_sim006_no_slots_fixture():
    findings = lint_fixture("bad_sim006_no_slots.py")
    assert codes_and_lines(findings) == [
        ("SIM006", 7),   # class Credit (bare @dataclass)
        ("SIM006", 13),  # class Stamp (@dataclass(frozen=True), no slots)
    ]


def test_sim006_plain_class_fixture():
    findings = lint_fixture("bad_sim006_plain_class.py")
    assert codes_and_lines(findings) == [
        ("SIM006", 7),   # class Arbiter: plain class, no __slots__
        ("SIM006", 23),  # class BareChild(Slotted): inherits but doesn't re-slot
    ]


def test_good_fixture_is_clean():
    assert lint_fixture("good_sim.py") == []


def test_fixtures_dir_skipped_without_flag():
    assert lint_paths([FIXTURES]) == []
    assert lint_paths([FIXTURES], include_fixtures=True) != []


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------

def test_sim001_only_fires_in_simulation_core():
    snippet = "import time\n\ndef f():\n    return time.time()\n"
    assert lint_source(snippet, module="repro.experiments.runner") == []
    hits = lint_source(snippet, module="repro.sim.kernel")
    assert codes_and_lines(hits) == [("SIM001", 4)]


def test_sim006_only_fires_in_hot_paths():
    snippet = (
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Row:\n    x: int\n"
    )
    assert lint_source(snippet, module="repro.metrics.report") == []
    hits = lint_source(snippet, module="repro.network.credit")
    assert codes_and_lines(hits) == [("SIM006", 4)]


def test_sim006_plain_class_only_fires_in_network_substrate():
    snippet = "class Counter:\n    def __init__(self):\n        self.n = 0\n"
    # repro.core is a hot path for *dataclasses* but keeps open plain classes.
    assert lint_source(snippet, module="repro.core.dpm") == []
    assert lint_source(snippet, module="repro.metrics.report") == []
    hits = lint_source(snippet, module="repro.network.arbiters")
    assert codes_and_lines(hits) == [("SIM006", 1)]


def test_sim006_plain_class_exempts_open_layout_bases():
    snippet = (
        "from enum import Enum\n"
        "from typing import Generic, Protocol, TypeVar\n\n"
        "T = TypeVar('T')\n\n\n"
        "class Sinkish(Protocol):\n"
        "    def receive_flit(self, flit, port): ...\n\n\n"
        "class Mode(Enum):\n"
        "    ON = 1\n\n\n"
        "class Box(Generic[T]):\n"
        "    def __init__(self, item):\n"
        "        self.item = item\n\n\n"
        "class Oops(Exception):\n"
        "    pass\n"
    )
    assert lint_source(snippet, module="repro.network.interface") == []


def test_unscoped_file_gets_only_universal_rules():
    snippet = (
        "import time\n\n"
        "def f(xs=[]):\n"
        "    return time.time(), xs\n"
    )
    hits = lint_source(snippet)  # no module: SIM001 inactive, SIM003 active
    assert codes_and_lines(hits) == [("SIM003", 3)]


def test_module_name_derived_from_path():
    assert (
        module_name_for_path(Path("src/repro/sim/kernel.py")) == "repro.sim.kernel"
    )
    assert module_name_for_path(Path("src/repro/optics/__init__.py")) == "repro.optics"
    assert module_name_for_path(Path("tests/test_foo.py")) is None


# ----------------------------------------------------------------------
# Suppressions, allowances, registry
# ----------------------------------------------------------------------

def test_suppression_comment_silences_one_line():
    snippet = (
        "def f(sim, t):\n"
        "    return sim.now == t  # sim-lint: ignore[SIM004]\n"
    )
    assert lint_source(snippet, module="repro.sim.x") == []


def test_suppression_with_wrong_code_does_not_silence():
    snippet = (
        "def f(sim, t):\n"
        "    return sim.now == t  # sim-lint: ignore[SIM001]\n"
    )
    assert codes_and_lines(lint_source(snippet, module="repro.sim.x")) == [
        ("SIM004", 2)
    ]


def test_rng_machinery_construction_allowed():
    snippet = (
        "import numpy as np\n\n"
        "def make(seed):\n"
        "    seq = np.random.SeedSequence(seed, spawn_key=(1,))\n"
        "    return np.random.Generator(np.random.PCG64(seq))\n"
    )
    assert lint_source(snippet, module="repro.sim.rng") == []


def test_pytest_approx_comparisons_allowed():
    snippet = (
        "import pytest\n\n"
        "def check(sim):\n"
        "    assert sim.now == pytest.approx(10.0)\n"
    )
    assert lint_source(snippet, module="repro.sim.x") == []


def test_every_rule_has_code_title_and_hint():
    for rule in RULES:
        assert rule.code.startswith("SIM") and len(rule.code) == 6
        assert rule.title and rule.rationale and rule.hint
        assert rule_for(rule.code) is rule


def test_shipped_tree_is_lint_clean():
    """The satellite promise: the real src/ tree has zero findings."""
    repo_root = Path(__file__).resolve().parents[2]
    assert lint_paths([repo_root / "src"]) == []


# ----------------------------------------------------------------------
# PR 6 rules: SIM007–SIM011
# ----------------------------------------------------------------------

def test_sim007_unordered_iter_fixture():
    findings = lint_fixture("bad_sim007_unordered_iter.py")
    assert codes_and_lines(findings) == [
        ("SIM007", 6),   # for ch in channels.values()
        ("SIM007", 11),  # listcomp over queues.keys()
        ("SIM007", 15),  # listcomp over set(nodes)
        ("SIM007", 20),  # for b in frozenset(boards)
        ("SIM007", 27),  # for w in {0, 1, 2} set literal
    ]


def test_sim007_only_fires_in_engine_packages():
    snippet = "def f(d):\n    return [d[k] for k in d.keys()]\n"
    assert codes_and_lines(
        lint_source(snippet, module="repro.network.x")
    ) == [("SIM007", 2)]
    # Harness layers iterate however they like.
    assert lint_source(snippet, module="repro.experiments.x") == []
    assert lint_source(snippet, module="repro.cli") == []


def test_sim007_sorted_wrapper_is_sanctioned():
    snippet = "def f(s):\n    return [x for x in sorted(s)]\n"
    assert lint_source(snippet, module="repro.sim.x") == []


def test_sim008_rng_machinery_fixture():
    findings = lint_fixture("bad_sim008_rng_machinery.py")
    assert codes_and_lines(findings) == [
        ("SIM008", 4),   # from numpy.random import SeedSequence
        ("SIM008", 8),   # np.random.SeedSequence(...)
        ("SIM008", 9),   # np.random.Generator(...)
        ("SIM008", 9),   # np.random.PCG64(...)
        ("SIM008", 13),  # bare Random()
    ]


def test_sim008_exempt_inside_the_registry_module():
    snippet = (
        "import numpy as np\n\n"
        "def make(seed):\n"
        "    return np.random.Generator(np.random.PCG64(seed))\n"
    )
    assert lint_source(snippet, module="repro.sim.rng") == []
    assert codes_and_lines(lint_source(snippet, module="repro.traffic.x")) == [
        ("SIM008", 4),
        ("SIM008", 4),
    ]


def test_sim008_vectorized_draw_fixture():
    findings = lint_fixture("bad_sim008_vectorized_draw.py")
    assert codes_and_lines(findings) == [
        ("SIM008", 6),   # rng.geometric(p, size=n)
        ("SIM008", 10),  # stream.integers(0, hi, size=n)
        ("SIM008", 14),  # self._rng.exponential(2.0, size=n)
    ]


def test_sim008_vectorized_draw_scope_is_the_engine_tier():
    snippet = "def f(rng, n):\n    return rng.integers(0, 4, size=n)\n"
    # Engine packages and the batch slab orchestrator are in scope ...
    for module in ("repro.core.batch", "repro.sim.x", "repro.perf.executor"):
        assert codes_and_lines(lint_source(snippet, module=module)) == [
            ("SIM008", 2)
        ], module
    # ... the registry itself and harness layers are not.
    for module in ("repro.sim.rng", "repro.perf.cache", "repro.traffic.x",
                   "repro.experiments.x"):
        assert lint_source(snippet, module=module) == [], module


def test_sim007_covers_the_batch_slab_orchestrator():
    snippet = "def f(d):\n    return [d[k] for k in d.keys()]\n"
    assert codes_and_lines(
        lint_source(snippet, module="repro.perf.executor")
    ) == [("SIM007", 2)]
    # Other perf modules stay harness-scoped.
    assert lint_source(snippet, module="repro.perf.cache") == []


def test_sim009_env_read_fixture():
    findings = lint_fixture("bad_sim009_env_read.py")
    assert codes_and_lines(findings) == [
        ("SIM009", 5),   # from os import environ
        ("SIM009", 9),   # os.environ["..."]
        ("SIM009", 13),  # os.urandom(8)
        ("SIM009", 17),  # os.getenv("...")
        ("SIM009", 23),  # time.time() outside the SIM001 core
    ]


def test_sim009_cli_and_benchmarks_are_exempt():
    snippet = "import os\n\ndef f():\n    return os.environ.get('HOME')\n"
    assert codes_and_lines(lint_source(snippet, module="repro.power.x")) == [
        ("SIM009", 4)
    ]
    assert lint_source(snippet, module="repro.cli") == []
    assert lint_source(snippet, module="repro.experiments.sweep") == []


def test_sim009_service_layer_is_exempt():
    # A long-running server legitimately reads the host environment
    # (spool paths, artifact dirs) and the wall clock (audit stamps);
    # determinism lives below it, in the runs it schedules.
    snippet = (
        "import os, time\n\n"
        "def f():\n"
        "    return os.environ.get('ERAPID_ARTIFACT_DIR'), time.time()\n"
    )
    assert lint_source(snippet, module="repro.service.artifacts") == []
    assert lint_source(snippet, module="repro.service.audit") == []


def test_sim010_zero_delay_fixture():
    findings = lint_fixture("bad_sim010_zero_delay.py")
    assert codes_and_lines(findings) == [
        ("SIM010", 6),   # sim.schedule(0.0, ...)
        ("SIM010", 10),  # sim.schedule_fast(0, ...)
    ]


def test_sim010_kernel_itself_is_exempt():
    # The kernel's own zero-delay wakeup machinery is the implementation
    # of schedule_late — the rule binds engine code, not repro.sim.
    snippet = "def f(sim, cb):\n    sim.schedule(0.0, cb)\n"
    assert lint_source(snippet, module="repro.sim.process") == []
    assert codes_and_lines(lint_source(snippet, module="repro.core.x")) == [
        ("SIM010", 2)
    ]


def test_sim011_cycle_float_fixture():
    findings = lint_fixture("bad_sim011_cycle_float.py")
    assert codes_and_lines(findings) == [
        ("SIM011", 6),   # cycle / 2
        ("SIM011", 10),  # now + 0.5
        ("SIM011", 14),  # next_due -= 0.25
    ]


def test_sim011_only_fires_in_the_cycle_engine():
    snippet = "def f(now):\n    return now + 0.5\n"
    assert codes_and_lines(
        lint_source(snippet, module="repro.sim.cycle.kernel")
    ) == [("SIM011", 2)]
    assert lint_source(snippet, module="repro.sim.kernel") == []


def test_good_fixture_passes_all_eleven_rules():
    assert lint_fixture("good_sim.py") == []


# ----------------------------------------------------------------------
# Parse failures and CLI exit codes
# ----------------------------------------------------------------------

def test_syntax_error_is_one_parse_finding(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n    pass\n")
    findings = lint_paths([bad])
    assert [(f.code, f.line) for f in findings] == [("PARSE", 1)]
    assert findings[0].message.startswith("syntax error")
    assert findings[0].hint == rule_for("PARSE").hint

    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PARSE syntax error" in out and "SIM003" not in out


def test_cli_lint_clean_tree_exits_zero(capsys):
    # The same four paths CI and `make lint` lint.
    paths = [str(REPO_ROOT / d) for d in ("src", "tests", "benchmarks", "examples")]
    rc = main(["lint", *paths])
    assert rc == 0
    assert "lint: clean" in capsys.readouterr().out


def test_cli_lint_bad_fixture_exits_one(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "bad_sim003_mutable_default.py"),
            "--include-fixtures",
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "SIM003" in out and "finding(s)" in out


def test_cli_missing_path_exits_two(capsys):
    rc = main(["lint", "definitely/not/a/path.py"])
    assert rc == 2
    assert "no such path" in capsys.readouterr().err
