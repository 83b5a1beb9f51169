"""AST-based simulation-invariant linter.

Checks the repo-specific rules SIM001–SIM011 (see
:mod:`repro.analysis.rules`).  The linter is a single :mod:`ast` pass per
file; it never imports the code under analysis, so it is safe to run on
broken or intentionally-bad fixture files.

Module scoping
--------------
Rules are scoped by *dotted module name* (e.g. SIM001 only fires inside the
simulation core).  The module name is normally derived from the file path
(``src/repro/sim/kernel.py`` → ``repro.sim.kernel``).  Fixture files that
live outside the package tree can opt into a scope with a marker comment in
their first lines::

    # sim-lint: module=repro.sim.fixture

Suppressions
------------
One finding can be silenced with ``# sim-lint: ignore`` (that line, any
rule) or ``# sim-lint: ignore[SIM004]`` (that line, that rule).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.rules import (
    RULES,
    SLOTTED_CLASS_PREFIXES,
    VECTOR_ENGINE_PREFIXES,
    rule_for,
)

__all__ = ["Finding", "lint_source", "lint_paths", "module_name_for_path"]


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One static finding (lint, layering or frozen), pinned to a file and line.

    ``code`` names its entry in :mod:`repro.analysis.rules`; findings order
    by ``(path, line, col, code, message)``.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def hint(self) -> str:
        return rule_for(self.code).hint

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


# ----------------------------------------------------------------------
# Rule tables
# ----------------------------------------------------------------------

#: Wall-clock entry points (SIM001), as fully-qualified dotted names.
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that construct *seeded* generator machinery
#: (what :class:`repro.sim.rng.RngRegistry` itself is built from); everything
#: else on ``numpy.random`` is banned by SIM002.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)

#: Terminal attribute/variable names treated as simulation timestamps
#: (SIM004).
_TIME_NAME = re.compile(
    r"(^(now|_now|t0|t1|timestamp|deadline|time)$)|(_(at|until|now|time|end)$)"
)

#: Terminal names treated as cycle counters / tick times (SIM011): the
#: integer-grid quantities of the cycle-synchronous clock loop.
_CYCLE_NAME = re.compile(
    r"(^(now|time|due|cycle|cycles|tick|ticks|delay)$)"
    r"|(_(at|until|now|time|end|due|cycle|cycles|tick|ticks)$)"
)

#: Environment/entropy entry points (SIM009), as dotted names.
_ENV_READ_CALLS = frozenset({"os.getenv", "os.urandom", "os.getenvb"})
_ENV_READ_ATTRS = frozenset({"os.environ", "os.environb"})

#: ``numpy.random`` machinery whose *construction* outside repro.sim.rng
#: is banned by SIM008.  Exactly the SIM002 allowance: SIM002 bans
#: unseeded/global draws everywhere, SIM008 bans the remaining (seeded)
#: machinery outside the registry module — together every RNG use outside
#: repro.sim.rng is flagged by exactly one rule.
_RNG_MACHINERY = _ALLOWED_NP_RANDOM

_KERNEL_NAMES = frozenset({"sim", "simulator", "kernel"})

#: Receiver names that read as an RNG stream (SIM008's vectorized-draw
#: check): `rng.geometric(p, size=n)` etc.  Matched on the terminal
#: variable/attribute name, so `self._rng` and `gap_rng` both qualify.
_RNG_RECEIVER = re.compile(r"(^(rng|gen|generator|stream|rand|random)$)|(_(rng|gen|stream)$)")

#: ``numpy.random.Generator`` distribution methods whose bulk (`size=`)
#: form must route through repro.sim.rng's chunk-consistent helpers when
#: called from engine-scope code.
_DIST_METHODS = frozenset(
    {
        "integers",
        "random",
        "choice",
        "geometric",
        "exponential",
        "poisson",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "permutation",
        "shuffle",
    }
)

_MODULE_MARKER = re.compile(r"#\s*sim-lint:\s*module=([\w.]+)")
_IGNORE_MARKER = re.compile(r"#\s*sim-lint:\s*ignore(?:\[([\w,\s]+)\])?")


def module_name_for_path(path: Path) -> Optional[str]:
    """Dotted module name for a file under a ``repro`` package tree."""
    parts = path.resolve().parts
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    dotted = list(parts[idx:-1])
    stem = path.stem
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted)


def _scan_module_marker(source: str) -> Optional[str]:
    for line in source.splitlines()[:5]:
        m = _MODULE_MARKER.search(line)
        if m:
            return m.group(1)
    return None


def _suppressed(lines: Sequence[str], line: int, code: str) -> bool:
    if not 1 <= line <= len(lines):
        return False
    m = _IGNORE_MARKER.search(lines[line - 1])
    if not m:
        return False
    codes = m.group(1)
    if codes is None:
        return True
    return code in {c.strip() for c in codes.split(",")}


def _own_body_walk(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's own body, skipping nested function bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(fn: ast.AST) -> bool:
    """Whether a function node has a yield in its *own* body (nested
    functions don't count — their yields belong to them)."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_body_walk(fn)
    )


def _assigned_names(fn: ast.AST) -> FrozenSet[str]:
    """Names bound by assignment in the function's own body (not params)."""
    names = set()
    for node in _own_body_walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return frozenset(names)


class _Visitor(ast.NodeVisitor):
    """One-pass rule evaluation over a module's AST."""

    def __init__(self, path: str, module: Optional[str], lines: Sequence[str]) -> None:
        self.path = path
        self.module = module
        self.lines = lines
        self.findings: List[Finding] = []
        #: local name -> fully-qualified dotted origin, for imported names.
        self.imports: Dict[str, str] = {}
        #: Enclosing function stack: (node, is_generator, assigned_names).
        self._funcs: List[Tuple[ast.AST, bool, FrozenSet[str]]] = []
        self._active = {r.code: r.applies_to(module) for r in RULES}
        #: SIM008's vectorized-draw check only fires in the engine scope
        #: (plus the batch slab orchestrator) — harness code may draw
        #: arrays, engine code must use repro.sim.rng's helpers.
        self._vector_scope = module is not None and any(
            module == p or module.startswith(p + ".")
            for p in VECTOR_ENGINE_PREFIXES
        )
        #: Plain (non-dataclass) classes here must carry __slots__ (SIM006).
        self._slotted_classes = module is not None and any(
            module == p or module.startswith(p + ".")
            for p in SLOTTED_CLASS_PREFIXES
        )

    # -- helpers -------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if not self._active[code]:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if _suppressed(self.lines, line, code):
            return
        self.findings.append(Finding(self.path, line, col, code, message))

    def _qualname(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted name via the import table."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        chain.append(root)
        return ".".join(reversed(chain))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
            if alias.name == "random" or alias.name.startswith("random."):
                self._emit(
                    node,
                    "SIM002",
                    "import of the stdlib `random` module; draw from "
                    "RngRegistry.stream(...) instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            origin = f"{mod}.{alias.name}" if mod else alias.name
            self.imports[local] = origin
            if mod == "random" or mod.startswith("random."):
                self._emit(
                    node,
                    "SIM002",
                    f"import of `random.{alias.name}`; draw from "
                    "RngRegistry.stream(...) instead",
                )
            elif origin in _WALLCLOCK:
                self._emit(
                    node,
                    self._wallclock_code(),
                    f"import of wall-clock source `{origin}`; simulation "
                    "code must use the simulation clock (sim.now)",
                )
            elif mod in ("numpy.random", "np.random"):
                if alias.name not in _ALLOWED_NP_RANDOM:
                    self._emit(
                        node,
                        "SIM002",
                        f"import of `numpy.random.{alias.name}`; draw from "
                        "RngRegistry.stream(...) instead",
                    )
                else:
                    self._emit(
                        node,
                        "SIM008",
                        f"import of RNG machinery `numpy.random."
                        f"{alias.name}` outside repro.sim.rng; route draws "
                        "through RngRegistry.stream(...)",
                    )
            elif origin in _ENV_READ_ATTRS or origin in _ENV_READ_CALLS:
                self._emit(
                    node,
                    "SIM009",
                    f"import of environment source `{origin}`; simulation "
                    "state must be a pure function of (config, seed)",
                )
        self.generic_visit(node)

    # -- functions -----------------------------------------------------
    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            bad = False
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                bad = True
            elif isinstance(default, ast.Call):
                name = self._qualname(default.func)
                if name is None and isinstance(default.func, ast.Name):
                    name = default.func.id
                if name in _MUTABLE_CALLS:
                    bad = True
            if bad:
                self._emit(
                    default,
                    "SIM003",
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the body",
                )

    def _visit_function(self, node: ast.AST, args: ast.arguments) -> None:
        self._check_defaults(node, args)
        self._funcs.append((node, _is_generator(node), _assigned_names(node)))
        self.generic_visit(node)
        self._funcs.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.args)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.args)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, node.args)

    # -- calls ---------------------------------------------------------
    def _wallclock_code(self) -> str:
        """SIM001 in the simulation core, SIM009 in the wider state scope."""
        return "SIM001" if self._active["SIM001"] else "SIM009"

    def visit_Call(self, node: ast.Call) -> None:
        qual = self._qualname(node.func)
        if qual is not None:
            if qual in _WALLCLOCK:
                self._emit(
                    node,
                    self._wallclock_code(),
                    f"call to wall-clock source `{qual}` inside simulation "
                    "code; use the simulation clock (sim.now)",
                )
            elif qual.startswith("random."):
                self._emit(
                    node,
                    "SIM002",
                    f"call to `{qual}` bypasses RngRegistry; pass a named "
                    "stream (`registry.stream(...)`) instead",
                )
            elif qual.startswith("numpy.random."):
                if qual.split(".")[2] not in _ALLOWED_NP_RANDOM:
                    self._emit(
                        node,
                        "SIM002",
                        f"call to `{qual}` bypasses RngRegistry; pass a "
                        "named stream (`registry.stream(...)`) instead",
                    )
                else:
                    self._emit(
                        node,
                        "SIM008",
                        f"construction of RNG machinery `{qual}` outside "
                        "repro.sim.rng; route draws through "
                        "RngRegistry.stream(...)",
                    )
            elif qual in _ENV_READ_CALLS:
                self._emit(
                    node,
                    "SIM009",
                    f"call to environment source `{qual}`; simulation "
                    "state must be a pure function of (config, seed)",
                )
        elif isinstance(node.func, ast.Name) and node.func.id == "Random":
            self._emit(
                node,
                "SIM008",
                "bare `Random()` construction outside repro.sim.rng; route "
                "draws through RngRegistry.stream(...)",
            )
        self._check_vectorized_draw(node)
        self._check_zero_delay_schedule(node)
        self._check_kernel_reentry(node)
        self.generic_visit(node)

    def _check_vectorized_draw(self, node: ast.Call) -> None:
        """SIM008 (vectorized form): bulk draws on an rng-ish receiver in
        engine-scope code must use repro.sim.rng's chunk-consistent
        helpers, or scalar and batch engines diverge in stream use."""
        if not self._vector_scope:
            return
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and fn.attr in _DIST_METHODS):
            return
        if not any(kw.arg == "size" for kw in node.keywords):
            return
        receiver = self._terminal_name(fn.value)
        if receiver is None or not _RNG_RECEIVER.search(receiver):
            return
        self._emit(
            node,
            "SIM008",
            f"vectorized draw `{receiver}.{fn.attr}(..., size=...)` in "
            "engine code bypasses the chunk-consistent helpers; use "
            "repro.sim.rng.geometric_gap_array / integer_array so scalar "
            "and batch engines consume streams identically",
        )

    def _check_zero_delay_schedule(self, node: ast.Call) -> None:
        """SIM010: literal zero-delay p0 scheduling in engine code."""
        fn = node.func
        if not (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("schedule", "schedule_fast")
        ):
            return
        if not node.args:
            return
        delay = node.args[0]
        if (
            isinstance(delay, ast.Constant)
            and type(delay.value) in (int, float)
            and delay.value == 0
        ):
            self._emit(
                node,
                "SIM010",
                f"zero-delay `{fn.attr}(0, ...)` enqueues at priority 0 "
                "ahead of pending continuations; use "
                "`schedule_late(0.0, ...)` for same-instant engine hops",
            )

    # -- attribute reads (SIM009: os.environ) --------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        qual = self._qualname(node)
        if qual in _ENV_READ_ATTRS:
            self._emit(
                node,
                "SIM009",
                f"read of `{qual}`; simulation state must be a pure "
                "function of (config, seed) — read the environment in the "
                "harness layer",
            )
        self.generic_visit(node)

    def _check_kernel_reentry(self, node: ast.Call) -> None:
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and fn.attr == "run"):
            return
        recv = fn.value
        is_kernel = (isinstance(recv, ast.Name) and recv.id in _KERNEL_NAMES) or (
            isinstance(recv, ast.Attribute) and recv.attr in _KERNEL_NAMES
        )
        if not is_kernel:
            return
        # A kernel *assigned inside* the innermost function is that
        # function's own sub-simulator (e.g. a microbench body building a
        # fresh Simulator): pumping it is not re-entry.
        if (
            self._funcs
            and isinstance(recv, ast.Name)
            and recv.id in self._funcs[-1][2]
        ):
            return
        # Re-entry risk: the call site lives inside a process generator or a
        # nested function (an event callback closure).  Top-level drivers —
        # plain functions and methods — may pump the kernel.
        in_generator = any(gen for _, gen, _names in self._funcs)
        nested = len(self._funcs) >= 2
        if in_generator or nested:
            self._emit(
                node,
                "SIM005",
                "kernel run() called from a process/callback; "
                "Simulator.run() is not reentrant — yield a waitable or "
                "schedule an event instead",
            )

    # -- comparisons ---------------------------------------------------
    @staticmethod
    def _terminal_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _is_approx_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
        return name in ("approx", "isclose")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            pair = (left, right)
            if any(
                isinstance(o, ast.Constant) and o.value is None for o in pair
            ):
                continue
            if any(self._is_approx_call(o) for o in pair):
                continue
            for o in pair:
                name = self._terminal_name(o)
                if name is not None and _TIME_NAME.search(name):
                    self._emit(
                        node,
                        "SIM004",
                        f"float equality on simulation timestamp `{name}`; "
                        "use ordered comparisons or math.isclose",
                    )
                    break
        self.generic_visit(node)

    # -- iteration order (SIM007) --------------------------------------
    def _check_unordered_iter(self, iter_node: ast.AST) -> None:
        """Flag iteration whose order is hash- or history-dependent."""
        if isinstance(iter_node, ast.Call):
            fn = iter_node.func
            fname = (
                fn.attr
                if isinstance(fn, ast.Attribute)
                else getattr(fn, "id", None)
            )
            if fname == "sorted":
                return
            if isinstance(fn, ast.Attribute) and fn.attr in ("keys", "values"):
                self._emit(
                    iter_node,
                    "SIM007",
                    f"iteration over `.{fn.attr}()` follows dict "
                    "construction-history order; iterate sorted keys (then "
                    "index) or suppress with a proof of order-insensitivity",
                )
                return
            if fname in ("set", "frozenset"):
                self._emit(
                    iter_node,
                    "SIM007",
                    f"iteration over `{fname}(...)` follows hash order; "
                    "wrap in sorted(...)",
                )
            return
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            self._emit(
                iter_node,
                "SIM007",
                "iteration over a set literal follows hash order; wrap in "
                "sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST, comps: List[ast.comprehension]) -> None:
        for gen in comps:
            self._check_unordered_iter(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    # -- cycle-counter arithmetic (SIM011) -----------------------------
    def _is_cycle_name(self, node: ast.AST) -> bool:
        name = self._terminal_name(node)
        return name is not None and bool(_CYCLE_NAME.search(name))

    @staticmethod
    def _is_fractional_const(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and type(node.value) is float
            and not node.value.is_integer()
        )

    def _check_cycle_arith(
        self, node: ast.AST, op: ast.operator, left: ast.AST, right: ast.AST
    ) -> None:
        if not self._active["SIM011"]:
            return
        operands = (left, right)
        if isinstance(op, ast.Div) and any(map(self._is_cycle_name, operands)):
            self._emit(
                node,
                "SIM011",
                "true division on a cycle counter leaves the integer cycle "
                "grid; use `//` or pre-scaled integral steps",
            )
            return
        if isinstance(op, (ast.Add, ast.Sub, ast.Mult, ast.Mod)) and (
            (self._is_cycle_name(left) and self._is_fractional_const(right))
            or (self._is_fractional_const(left) and self._is_cycle_name(right))
        ):
            self._emit(
                node,
                "SIM011",
                "fractional float constant combined with a cycle counter "
                "moves tick times off the integer cycle grid",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_cycle_arith(node, node.op, node.left, node.right)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_cycle_arith(node, node.op, node.target, node.value)
        self.generic_visit(node)

    # -- classes (dataclass slots=True / plain-class __slots__) --------

    #: Base classes that manage their own instance layout; subclasses are
    #: exempt from the plain-class __slots__ requirement.
    _OPEN_LAYOUT_BASES = frozenset(
        {"Protocol", "Enum", "IntEnum", "StrEnum", "IntFlag", "Flag",
         "Exception", "Generic"}
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_dataclass = False
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = self._terminal_name(target)
            if name != "dataclass":
                continue
            is_dataclass = True
            has_slots = isinstance(dec, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not has_slots:
                self._emit(
                    node,
                    "SIM006",
                    f"hot-path dataclass `{node.name}` without slots=True; "
                    "declare @dataclass(slots=True, ...)",
                )
        if not is_dataclass and self._slotted_classes:
            self._check_plain_class_slots(node)
        self.generic_visit(node)

    def _check_plain_class_slots(self, node: ast.ClassDef) -> None:
        for base in node.bases:
            base_name = self._terminal_name(
                base.value if isinstance(base, ast.Subscript) else base
            )
            if base_name in self._OPEN_LAYOUT_BASES:
                return
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return
        self._emit(
            node,
            "SIM006",
            f"network-substrate class `{node.name}` without __slots__; "
            "define a __slots__ tuple in the class body (subclasses too — "
            "one inherited __dict__ voids the whole chain)",
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
) -> List[Finding]:
    """Lint one source blob; ``module`` overrides path-derived scoping."""
    if module is None:
        module = _scan_module_marker(source)
    if module is None and path != "<string>":
        module = module_name_for_path(Path(path))
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(path, module, source.splitlines())
    visitor.visit(tree)
    return sorted(visitor.findings)


_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".pytest_cache", "build", "dist"}


def _iter_py_files(paths: Iterable[Path], include_fixtures: bool) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        if p.is_file() and p.suffix == ".py":
            files.append(p)
            continue
        if not p.is_dir():
            continue
        for f in p.rglob("*.py"):
            parts = set(f.parts)
            if parts & _SKIP_DIRS:
                continue
            if not include_fixtures and "fixtures" in f.parts:
                continue
            files.append(f)
    return sorted(set(files))


def lint_paths(
    paths: Sequence[Path],
    include_fixtures: bool = False,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (fixture dirs skipped).

    An unreadable or unparseable file produces one ``PARSE`` finding, so it
    fails loudly instead of being skipped silently.
    """
    findings: List[Finding] = []
    for f in _iter_py_files(paths, include_fixtures):
        rel = _relpath(f)
        try:
            source = f.read_text(encoding="utf-8")
        except OSError as exc:  # pragma: no cover - filesystem race
            findings.append(Finding(rel, 1, 0, "PARSE", f"unreadable file: {exc}"))
            continue
        try:
            findings.extend(
                Finding(rel, fd.line, fd.col, fd.code, fd.message)
                for fd in lint_source(source, path=str(f))
            )
        except SyntaxError as exc:
            findings.append(
                Finding(rel, exc.lineno or 1, 0, "PARSE", f"syntax error: {exc.msg}")
            )
    return sorted(findings)


def _relpath(path: Path) -> str:
    """Cwd-relative forward-slash path when possible (stable report paths)."""
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()
