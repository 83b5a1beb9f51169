"""Import-layering analyzer tests.

Covers the declared DAG (including the strict ``optics -> network -> sim``
chain), the frozen-legacy import prohibition, the module-level allowlist,
undeclared packages, relative-import resolution, and the promise that the
real shipped tree is layering-clean.
"""

import json
from pathlib import Path

from repro.analysis.__main__ import main
from repro.analysis.layering import (
    EDGE_ALLOWLIST,
    LAYER_DAG,
    MODULE_LAYERS,
    ImportEdge,
    analyze_paths,
    check_layering,
    collect_import_edges,
    format_dag,
    package_of,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def edge(src, dst, path="src/repro/x.py", line=1):
    return ImportEdge(src_module=src, dst_module=dst, path=path, line=line)


# ----------------------------------------------------------------------
# DAG semantics
# ----------------------------------------------------------------------

def test_declared_edges_are_clean():
    edges = [
        edge("repro.network.topology", "repro.sim.kernel"),
        edge("repro.optics.plane", "repro.network.topology"),
        edge("repro.core.engine", "repro.optics.plane"),
        edge("repro.sim.kernel", "repro.errors"),
    ]
    assert check_layering(edges) == []


def test_optics_may_not_import_the_kernel_directly():
    # The optics -> network -> sim chain is strict edges: the optical
    # plane rides on the network substrate, never on the kernel.
    violations = check_layering([edge("repro.optics.plane", "repro.sim.kernel")])
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "layer"
    assert "optics" in v.message and "sim" in v.message


def test_upward_import_is_a_violation():
    violations = check_layering([edge("repro.sim.kernel", "repro.core.engine")])
    assert [v.kind for v in violations] == ["layer"]


def test_service_layer_is_declared_and_bounded():
    # The sweep service rides on the perf harness, the config layer and
    # the analysis fingerprint ...
    assert "service" in LAYER_DAG
    clean = [
        edge("repro.service.runner", "repro.perf.executor"),
        edge("repro.service.runner", "repro.perf.cache"),
        edge("repro.service.runner", "repro.analysis.determinism"),
        edge("repro.service.spec", "repro.core.config"),
    ]
    assert check_layering(clean) == []
    # ... but is not a wildcard layer: importing the one-shot experiment
    # harness from the service is a violation.
    violations = check_layering(
        [edge("repro.service.orchestrator", "repro.experiments.sweep")]
    )
    assert [v.kind for v in violations] == ["layer"]
    assert "experiments" in violations[0].message


def test_batch_module_budget_is_tighter_than_core():
    # The package entry would allow core -> network/power; the batch
    # module's own budget must not.
    budget = MODULE_LAYERS["repro.core.batch"]
    assert "network" not in budget and "power" not in budget
    assert budget < LAYER_DAG["core"] | {"core"}


def test_batch_module_may_not_import_network_or_power():
    for dst in ("repro.network.topology", "repro.power.dpm"):
        violations = check_layering([edge("repro.core.batch", dst)])
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "module"
        assert "module-scoped budget" in v.message


def test_batch_module_allowed_edges_are_clean():
    edges = [
        edge("repro.core.batch", "repro.core.config"),
        edge("repro.core.batch", "repro.sim.rng"),
        edge("repro.core.batch", "repro.optics.rwa"),
        edge("repro.core.batch", "repro.traffic.capacity"),
        edge("repro.core.batch", "repro.metrics.collector"),
        edge("repro.core.batch", "repro.errors"),
    ]
    assert check_layering(edges) == []


def test_skip_module_budget_is_empty():
    # The next-event helper is pure array arithmetic: it may import
    # nothing from repro at all.
    assert MODULE_LAYERS["repro.core.skip"] == frozenset()
    for dst in ("repro.core.batch", "repro.sim.rng", "repro.network.router"):
        violations = check_layering([edge("repro.core.skip", dst)])
        assert len(violations) == 1, dst
        assert violations[0].kind == "module"


def test_skip_module_is_in_the_vector_engine_lint_scope():
    # SIM007/SIM008's vectorized-engine scope must cover the skip
    # helper: it sits under repro.core, which the prefix list pins.
    from repro.analysis.rules import VECTOR_ENGINE_PREFIXES

    module = "repro.core.skip"
    assert any(
        module == p or module.startswith(p + ".")
        for p in VECTOR_ENGINE_PREFIXES
    )


def test_reduce_module_shares_the_skip_module_contract():
    # The batch engine's log reducers, like the next-event helper, are
    # pure array arithmetic: empty import budget, vectorized-engine lint
    # scope (SIM007/SIM008).
    from repro.analysis.rules import VECTOR_ENGINE_PREFIXES

    module = "repro.core.reduce"
    assert MODULE_LAYERS[module] == frozenset()
    for dst in ("repro.core.batch", "repro.core.skip", "repro.sim.rng"):
        violations = check_layering([edge(module, dst)])
        assert [v.kind for v in violations] == ["module"], dst
    assert check_layering([edge("repro.core.batch", module)]) == []
    assert any(
        module == p or module.startswith(p + ".")
        for p in VECTOR_ENGINE_PREFIXES
    )


def test_module_budget_overrides_only_the_declared_module():
    # Sibling core modules keep the package-level budget.
    assert check_layering([edge("repro.core.engine", "repro.network.router")]) == []


def test_legacy_import_outside_perf_is_forbidden():
    violations = check_layering(
        [edge("repro.core.engine", "repro.perf.legacy_engine")]
    )
    assert [v.kind for v in violations] == ["legacy"]
    assert "frozen oracle" in violations[0].message


def test_legacy_import_inside_perf_is_forbidden():
    # No src/ module is exempt: the oracles serve tests/ only.
    violations = check_layering(
        [edge("repro.perf.executor", "repro.perf.legacy")]
    )
    assert [v.kind for v in violations] == ["legacy"]


def test_perf_wildcard_does_not_cover_legacy():
    # `perf -> anything` is about the harness importing engines; the
    # legacy prohibition is evaluated first and binds everyone.
    violations = check_layering([edge("repro.cli", "repro.perf.legacy_detailed")])
    assert [v.kind for v in violations] == ["legacy"]


def test_allowlisted_edge_is_tolerated():
    pair = ("repro.metrics.timeseries", "repro.core.engine")
    assert pair in EDGE_ALLOWLIST
    assert check_layering([edge(*pair)]) == []
    # The allowlist is module-exact: a sibling module gets no pass.
    violations = check_layering([edge("repro.metrics.collector", "repro.core.engine")])
    assert [v.kind for v in violations] == ["layer"]


def test_undeclared_package_is_flagged():
    violations = check_layering([edge("repro.newpkg.mod", "repro.sim.kernel")])
    assert [v.kind for v in violations] == ["undeclared"]
    assert "LAYER_DAG" in violations[0].message


def test_same_package_imports_are_ignored():
    assert check_layering([edge("repro.sim.kernel", "repro.sim.events")]) == []


def test_package_of():
    assert package_of("repro.sim.kernel") == "sim"
    assert package_of("repro") == "repro"
    assert package_of("repro.errors") == "errors"


# ----------------------------------------------------------------------
# Edge collection
# ----------------------------------------------------------------------

def test_collect_resolves_absolute_and_relative_imports(tmp_path):
    pkg = tmp_path / "src" / "repro" / "optics"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("from repro.optics import plane\n")
    (pkg / "plane.py").write_text(
        "from repro.network import topology\n"
        "from . import helpers\n"
        "from ..sim import kernel\n"
    )
    (pkg / "helpers.py").write_text("")
    edges = collect_import_edges([tmp_path / "src"])
    got = {(e.src_module, e.dst_module) for e in edges}
    # `from X import y` records the module X — package granularity is what
    # the DAG checks; `y` may be a symbol rather than a submodule.
    assert ("repro.optics.plane", "repro.network") in got
    assert ("repro.optics.plane", "repro.optics") in got  # from . import
    assert ("repro.optics.plane", "repro.sim") in got  # from ..sim import
    assert ("repro.optics", "repro.optics") in got


def test_collect_skips_fixture_and_test_files():
    edges = collect_import_edges([REPO_ROOT / "tests"])
    assert edges == []


# ----------------------------------------------------------------------
# The real tree and the CLI
# ----------------------------------------------------------------------

def test_shipped_tree_is_layering_clean():
    edges, violations = analyze_paths([REPO_ROOT / "src"])
    assert violations == []
    assert len(edges) > 300  # the real import graph, not an empty scan


def test_every_dag_package_exists_or_is_virtual():
    src = REPO_ROOT / "src" / "repro"
    for pkg in LAYER_DAG:
        if pkg in ("repro", "__main__"):
            continue
        assert (src / pkg).exists() or (src / f"{pkg}.py").exists(), pkg


def test_format_dag_mentions_every_package():
    text = format_dag()
    for pkg in LAYER_DAG:
        assert pkg in text
    assert "legacy" in text


def test_cli_layering_clean_tree_exits_zero(capsys):
    rc = main(["layering", str(REPO_ROOT / "src")])
    assert rc == 0
    assert "layering: clean" in capsys.readouterr().out


def test_cli_layering_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "optics"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text("from repro.sim import kernel\n")
    rc = main(["layering", str(tmp_path / "src")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "LAYER" in out and "rogue.py" in out


def test_cli_layering_json_format(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text("from repro.core import engine\n")
    rc = main(["--format=json", "layering", str(tmp_path / "src")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"][0]["kind"] == "layer"
    assert payload["violations"][0]["src_module"] == "repro.sim.rogue"


def test_cli_layering_print_dag(capsys):
    rc = main(["layering", "--print-dag"])
    assert rc == 0
    assert "declared layering DAG" in capsys.readouterr().out
