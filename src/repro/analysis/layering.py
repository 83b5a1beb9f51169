"""Import-layering analyzer: the declared package DAG vs. the real imports.

The repo's packages form a layered architecture that PRs 1–4 made
load-bearing: the kernel (``repro.sim``) knows nothing above it, the
network substrate rides on the kernel, the optical plane rides on the
network, and the engines (``repro.core``) compose all of them.  The frozen
bit-identity oracles (``repro.perf.legacy*``) sit apart: **nothing in
``src/`` may import them, only ``tests/``**, so production code can never
grow a dependency on a module whose whole value is standing still.

This module checks that discipline from the *real* import graph, parsed
with :mod:`ast` (the code under analysis is never imported):

* :data:`LAYER_DAG` declares, per package, the set of packages it may
  import.  ``"*"`` marks the harness layers (``perf``, ``experiments``,
  ``cli``) that may import anything.
* :data:`MODULE_LAYERS` declares *tighter* module-scoped budgets that
  override the containing package's entry — e.g. ``repro.core.batch``
  may not import the network substrate or power package even though
  ``core`` as a whole may (the vectorized model is analytic by design).
* :data:`EDGE_ALLOWLIST` holds the few deliberate module-level exceptions
  (today: one type-only edge), each carrying a rationale.
* Any import of a ``repro.perf.legacy*`` module is a violation
  regardless of the DAG.

Run it with ``python -m repro.analysis layering`` (text/json/sarif).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.linter import module_name_for_path

__all__ = [
    "LAYER_DAG",
    "MODULE_LAYERS",
    "EDGE_ALLOWLIST",
    "ImportEdge",
    "LayerViolation",
    "collect_import_edges",
    "check_layering",
    "analyze_paths",
    "format_dag",
]

#: Wildcard marker: the package may import any repro package.
ANY = "*"

#: package -> packages it may import.  A package absent from this table is
#: an *undeclared layer*: every cross-package import from it is flagged, so
#: new packages must take an explicit position in the DAG.
LAYER_DAG: Dict[str, FrozenSet[str]] = {
    # Foundation: the exception hierarchy imports nothing.
    "errors": frozenset(),
    # The event kernel knows only the exceptions.
    "sim": frozenset({"errors"}),
    # The electrical substrate rides on the kernel.
    "network": frozenset({"sim", "errors"}),
    # The optical plane rides on the network — never directly on the
    # kernel (the `optics -> network -> sim` chain is strict edges).
    "optics": frozenset({"network", "errors"}),
    # Power models ride on the kernel's clocks/stats only.
    "power": frozenset({"sim", "errors"}),
    # Traffic generation feeds the network layer.
    "traffic": frozenset({"network", "sim", "errors"}),
    # Metrics observe runs; the one core dependence is type-only and
    # allowlisted below.
    "metrics": frozenset({"network", "sim", "errors"}),
    # The engines compose everything below them.
    "core": frozenset(
        {"metrics", "network", "optics", "power", "sim", "traffic", "errors"}
    ),
    # Reference fabrics compare against the engines.
    "baselines": frozenset(
        {"core", "metrics", "network", "power", "sim", "traffic", "errors"}
    ),
    # The correctness tooling may exercise the engines.
    "analysis": frozenset(
        {"core", "metrics", "network", "power", "sim", "traffic", "errors"}
    ),
    # The sweep service orchestrates the perf harness (executor + cache)
    # and builds run descriptions from the engine config layer; it rides
    # on analysis only for the sweep fingerprint it stamps into
    # manifests.  Deliberately *not* a wildcard layer: the service must
    # never import experiments (the one-shot figure harness) or power
    # internals — its contact with simulation semantics is exclusively
    # through declarative specs.
    "service": frozenset(
        {"analysis", "core", "errors", "metrics", "network", "perf", "sim",
         "traffic"}
    ),
    # Harness layers: may import anything.
    "experiments": frozenset({ANY}),
    "cli": frozenset({ANY}),
    "perf": frozenset({ANY}),
    # The root package re-exports the public surface.
    "repro": frozenset({ANY}),
    "__main__": frozenset({ANY}),
}

#: Module-scoped import budgets *tighter* than the containing package's
#: DAG entry.  A module listed here is checked against its own set (plus
#: :data:`EDGE_ALLOWLIST`) instead of the package entry; its own package
#: must be listed explicitly if same-package imports are allowed.
#:
#: * ``repro.core.batch`` — the vectorized struct-of-arrays sweep tier.
#:   It models power analytically and advances state on its own cycle
#:   grid, so it must never import the event-driven network substrate
#:   (``repro.network``) or the stateful power package (``repro.power``);
#:   growing such an import would mean the "vectorized" engine quietly
#:   re-entered scalar simulation territory.
#: * ``repro.core.skip`` — the batch engine's next-event computation and
#:   telemetry counters.  It is pure arithmetic over arrays the engine
#:   hands it, so it may import nothing from :mod:`repro` at all; an
#:   import appearing here would mean engine state leaked into what must
#:   stay a layout-independent helper.
#: * ``repro.core.reduce`` — the batch engine's log reducers (receive-port
#:   FIFO completions, delivery tallies, accounting replay).  Same
#:   contract as ``repro.core.skip``: pure arithmetic over logged arrays,
#:   no :mod:`repro` import at all.
MODULE_LAYERS: Dict[str, FrozenSet[str]] = {
    "repro.core.batch": frozenset(
        {"core", "errors", "metrics", "optics", "sim", "traffic"}
    ),
    "repro.core.skip": frozenset(),
    "repro.core.reduce": frozenset(),
}

#: Deliberate module-level exceptions to the package DAG, as
#: ``(importer module, imported module)`` pairs.  Keep this list short and
#: every entry justified:
#:
#: * ``repro.metrics.timeseries -> repro.core.engine`` — a
#:   ``TYPE_CHECKING``-guarded annotation-only import (the probe annotates
#:   the engine it samples); it never executes at runtime.
EDGE_ALLOWLIST: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("repro.metrics.timeseries", "repro.core.engine"),
    }
)

#: Module prefix of the frozen bit-identity oracles.
_LEGACY_PREFIX = "repro.perf.legacy"


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One repro-internal import statement in the scanned tree."""

    src_module: str
    dst_module: str
    path: str
    line: int


@dataclass(frozen=True, slots=True)
class LayerViolation:
    """One layering violation, pinned to the importing statement."""

    path: str
    line: int
    src_module: str
    dst_module: str
    kind: str  # "layer" | "legacy" | "undeclared" | "module"
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.kind.upper()} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "src_module": self.src_module,
            "dst_module": self.dst_module,
            "kind": self.kind,
            "message": self.message,
        }


def package_of(module: str) -> str:
    """The DAG layer a dotted ``repro...`` module belongs to."""
    parts = module.split(".")
    if len(parts) == 1:
        return "repro"
    return parts[1]


def _imported_modules(node: ast.AST, package: str) -> List[str]:
    """repro-internal modules named by one Import/ImportFrom node.

    ``package`` is the importer's *containing package* (the module itself
    for ``__init__`` files), used to resolve relative imports.
    """
    out: List[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                out.append(alias.name)
    elif isinstance(node, ast.ImportFrom):
        mod = node.module or ""
        if node.level:
            # `from .x import y` -> package.x; each extra dot climbs one.
            base = package.split(".")
            base = base[: len(base) - (node.level - 1)]
            mod = ".".join(base + ([mod] if mod else []))
        if mod == "repro" or mod.startswith("repro."):
            out.append(mod)
    return out


def collect_import_edges(paths: Sequence[Path]) -> List[ImportEdge]:
    """Parse every ``repro``-tree file under ``paths`` into import edges.

    Files whose dotted module name cannot be derived (tests, benchmarks,
    fixtures) are skipped — the layering contract binds shipped code.
    """
    edges: List[ImportEdge] = []
    files: List[Path] = []
    for p in paths:
        if p.is_file() and p.suffix == ".py":
            files.append(p)
        elif p.is_dir():
            files.extend(
                f
                for f in p.rglob("*.py")
                if "__pycache__" not in f.parts and "fixtures" not in f.parts
            )
    for f in sorted(set(files)):
        module = module_name_for_path(f)
        if module is None:
            continue
        try:
            tree = ast.parse(f.read_text(encoding="utf-8"), filename=str(f))
        except (OSError, SyntaxError):
            continue
        rel = _relpath(f)
        package = (
            module if f.stem == "__init__" else module.rsplit(".", 1)[0]
        )
        for node in ast.walk(tree):
            for dst in _imported_modules(node, package):
                edges.append(
                    ImportEdge(
                        src_module=module,
                        dst_module=dst,
                        path=rel,
                        line=getattr(node, "lineno", 1),
                    )
                )
    return edges


def _relpath(path: Path) -> str:
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def check_layering(
    edges: Iterable[ImportEdge],
    dag: Optional[Mapping[str, FrozenSet[str]]] = None,
    allowlist: Optional[FrozenSet[Tuple[str, str]]] = None,
    module_layers: Optional[Mapping[str, FrozenSet[str]]] = None,
) -> List[LayerViolation]:
    """Evaluate ``edges`` against the declared DAG and the legacy rule."""
    the_dag = LAYER_DAG if dag is None else dag
    the_allowlist = EDGE_ALLOWLIST if allowlist is None else allowlist
    the_module_layers = MODULE_LAYERS if module_layers is None else module_layers
    violations: List[LayerViolation] = []
    for edge in edges:
        src_pkg = package_of(edge.src_module)
        dst_pkg = package_of(edge.dst_module)
        if edge.dst_module.startswith(_LEGACY_PREFIX):
            violations.append(
                LayerViolation(
                    path=edge.path,
                    line=edge.line,
                    src_module=edge.src_module,
                    dst_module=edge.dst_module,
                    kind="legacy",
                    message=(
                        f"`{edge.src_module}` imports frozen oracle "
                        f"`{edge.dst_module}`; only tests/ may touch "
                        "legacy* modules"
                    ),
                )
            )
            continue
        module_allowed = the_module_layers.get(edge.src_module)
        if module_allowed is not None:
            if (
                dst_pkg in module_allowed
                or (edge.src_module, edge.dst_module) in the_allowlist
            ):
                continue
            violations.append(
                LayerViolation(
                    path=edge.path,
                    line=edge.line,
                    src_module=edge.src_module,
                    dst_module=edge.dst_module,
                    kind="module",
                    message=(
                        f"`{edge.src_module}` has a module-scoped budget and "
                        f"may not import `{edge.dst_module}` ({dst_pkg}); "
                        f"allowed layers: {sorted(module_allowed) or 'none'}"
                    ),
                )
            )
            continue
        if src_pkg == dst_pkg:
            continue
        allowed = the_dag.get(src_pkg)
        if allowed is None:
            violations.append(
                LayerViolation(
                    path=edge.path,
                    line=edge.line,
                    src_module=edge.src_module,
                    dst_module=edge.dst_module,
                    kind="undeclared",
                    message=(
                        f"package `{src_pkg}` has no declared layer; add it "
                        "to repro.analysis.layering.LAYER_DAG"
                    ),
                )
            )
            continue
        if ANY in allowed or dst_pkg in allowed:
            continue
        if (edge.src_module, edge.dst_module) in the_allowlist:
            continue
        violations.append(
            LayerViolation(
                path=edge.path,
                line=edge.line,
                src_module=edge.src_module,
                dst_module=edge.dst_module,
                kind="layer",
                message=(
                    f"`{edge.src_module}` ({src_pkg}) may not import "
                    f"`{edge.dst_module}` ({dst_pkg}); allowed layers for "
                    f"{src_pkg}: {sorted(allowed) or 'none'}"
                ),
            )
        )
    return sorted(violations, key=lambda v: (v.path, v.line, v.dst_module))


def analyze_paths(paths: Sequence[Path]) -> Tuple[List[ImportEdge], List[LayerViolation]]:
    """Collect edges under ``paths`` and check them against the DAG."""
    edges = collect_import_edges(paths)
    return edges, check_layering(edges)


def format_dag() -> str:
    """Human-readable dump of the declared DAG (for docs and --print-dag)."""
    lines = ["declared layering DAG (package -> may import):"]
    for pkg in sorted(LAYER_DAG):
        allowed = LAYER_DAG[pkg]
        target = "anything" if ANY in allowed else (
            ", ".join(sorted(allowed)) or "nothing"
        )
        lines.append(f"  {pkg:<12} -> {target}")
    for module in sorted(MODULE_LAYERS):
        allowed = MODULE_LAYERS[module]
        lines.append(
            f"  {module} (module-scoped) -> "
            f"{', '.join(sorted(allowed)) or 'nothing'}"
        )
    lines.append(
        "  legacy rule: only tests/ may import repro.perf.legacy* "
        "(frozen oracles)"
    )
    return "\n".join(lines)
