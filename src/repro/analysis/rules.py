"""The simulation-invariant rule registry, and the table of every finding code.

Each rule has a stable code (``SIM001``…), a one-line title, a rationale
docstring, an autofix hint, and a *scope* — the set of module prefixes the
rule applies to.  The codes the linter does not evaluate (``PARSE`` and the
layering and frozen-manifest codes) share the shape, so :func:`rule_for`
answers for every :class:`~repro.analysis.linter.Finding`.  Scoping matters: wall-clock time is fine in an experiment
runner's progress log but poison inside the event kernel, so SIM001 only
fires in the simulation packages.

A finding can be suppressed on one line with ``# sim-lint: ignore`` or
``# sim-lint: ignore[SIM004]``; suppressions are for the rare deliberate
exception and should carry a neighbouring comment saying why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Rule", "RULES", "rule_for"]

#: Module prefixes that make up the deterministic simulation core: code here
#: executes inside (or feeds state into) the event kernel's run loop.
SIM_CORE_PREFIXES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.network",
    "repro.optics",
)

#: Hot-path modules: objects instantiated per packet/flit/event.  Dataclasses
#: here must declare ``slots=True`` (SIM006).
HOT_PATH_PREFIXES: Tuple[str, ...] = (
    "repro.sim",
    "repro.network",
    "repro.core",
)

#: Modules whose *plain* (non-dataclass) classes must also declare
#: ``__slots__`` in the class body (SIM006).  Narrower than
#: HOT_PATH_PREFIXES: the network substrate is instantiated per
#: router/VC/arbiter at build time and touched every simulated cycle, so
#: attribute access dominates; repro.sim/repro.core keep open classes for
#: their extension points.
SLOTTED_CLASS_PREFIXES: Tuple[str, ...] = ("repro.network",)

#: Everything shipped under ``repro.`` except the tooling itself.
REPRO_PREFIXES: Tuple[str, ...] = ("repro",)

#: Engine packages whose run-loop state feeds the kernel's event order
#: (SIM007/SIM010): iteration-order and same-timestamp ambiguity here
#: silently reorders events.
ENGINE_PREFIXES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.network",
)

#: The engine scope plus the batch slab orchestrator.  The vectorized
#: batch tier made ``repro.perf.executor`` engine-adjacent: it groups run
#: grids into slab dicts (iteration order is part of the result contract)
#: and is the most likely first home of a stray vectorized draw; PR 9
#: moved the slab-grouping/shard-planning half into ``repro.perf.shards``,
#: which inherits the scope for the same reason.  SIM007 uses this as its
#: scope; SIM008's vectorized-draw check (`size=` draws on an rng-ish
#: receiver) is confined to it.
VECTOR_ENGINE_PREFIXES: Tuple[str, ...] = ENGINE_PREFIXES + (
    "repro.perf.executor",
    "repro.perf.shards",
)

#: Simulation state packages for SIM009: everything that executes inside a
#: run or computes its results.  Benchmarks, the CLI and the experiment
#: runner are exempt *by omission* — host environment reads are fine in
#: harness code.
SIM_STATE_PREFIXES: Tuple[str, ...] = SIM_CORE_PREFIXES + (
    "repro.traffic",
    "repro.power",
    "repro.metrics",
)

#: The cycle-synchronous clock loop (SIM011): PR 4 established integer
#: timestamp discipline here — tick times are integral-valued floats and
#: may never acquire fractional parts through arithmetic.
CYCLE_PREFIXES: Tuple[str, ...] = ("repro.sim.cycle",)


@dataclass(frozen=True, slots=True)
class Rule:
    """One lint rule: code, summary, rationale and autofix hint."""

    code: str
    title: str
    rationale: str
    hint: str
    #: Module prefixes the rule applies to; ``None`` means every file.
    scope: Optional[Tuple[str, ...]] = None
    #: Module prefixes *inside* the scope where the rule stays silent
    #: (e.g. SIM008 is exempt in repro.sim.rng — the one sanctioned home
    #: of RNG machinery).
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: Optional[str]) -> bool:
        """Whether this rule is active for ``module`` (dotted name)."""
        if module is not None and any(
            module == p or module.startswith(p + ".") for p in self.exempt
        ):
            return False
        if self.scope is None:
            return True
        if module is None:
            return False
        return any(
            module == p or module.startswith(p + ".") for p in self.scope
        )


RULES: Tuple[Rule, ...] = (
    Rule(
        code="SIM001",
        title="wall-clock source in simulation code",
        rationale=(
            "Simulation code must be a pure function of (config, seed).  "
            "`time.time`, `time.perf_counter`, `time.monotonic`, "
            "`datetime.now` and friends leak host wall-clock state into the "
            "run, silently breaking bit-reproducibility of every figure."
        ),
        hint=(
            "Use the simulation clock (`sim.now`) for model time; keep "
            "wall-clock profiling in the experiment runner layer "
            "(repro.experiments) or behind a benchmark harness."
        ),
        scope=SIM_CORE_PREFIXES,
    ),
    Rule(
        code="SIM002",
        title="randomness outside RngRegistry streams",
        rationale=(
            "All stochastic draws must flow through a named "
            "`RngRegistry.stream(...)` generator so that common random "
            "numbers hold across the four NP/P × NB/B configurations.  Bare "
            "`random.*`, `np.random.default_rng()` and the global "
            "`np.random.*` state are unseeded (or shared), so one extra "
            "draw anywhere perturbs every downstream result."
        ),
        hint=(
            "Accept an `np.random.Generator` parameter and have the caller "
            "pass `registry.stream('<entity name>')`."
        ),
        scope=REPRO_PREFIXES,
    ),
    Rule(
        code="SIM003",
        title="mutable default argument",
        rationale=(
            "A mutable default (`[]`, `{}`, `set()`, …) is created once at "
            "def time and shared by every call — state leaks across "
            "simulation runs that must be independent."
        ),
        hint="Default to None and create the object inside the function body.",
        scope=None,
    ),
    Rule(
        code="SIM004",
        title="float equality on simulation timestamps",
        rationale=(
            "Simulation time is a float; `==`/`!=` on timestamps works until "
            "someone introduces a fractional latency, then events silently "
            "stop matching.  Windows and phases must use ordered "
            "comparisons (`<=`, `<`) or integer cycle counts."
        ),
        hint=(
            "Compare with <=/< against phase boundaries, or use "
            "`math.isclose` where approximate coincidence is really meant."
        ),
        scope=REPRO_PREFIXES,
    ),
    Rule(
        code="SIM005",
        title="kernel re-entry from a callback or process",
        rationale=(
            "`Simulator.run()` is not reentrant: calling it from an event "
            "callback or a process generator re-enters the dispatch loop "
            "mid-event and corrupts the (time, priority, FIFO) total order.  "
            "Only top-level drivers may pump the kernel."
        ),
        hint=(
            "Return control to the kernel (yield a waitable / schedule an "
            "event) instead of calling run() from model code."
        ),
        scope=None,
    ),
    Rule(
        code="SIM006",
        title="hot-path class without slots",
        rationale=(
            "Packets, flits, events and trace rows are instantiated millions "
            "of times per run, and the network substrate's routers, VCs and "
            "arbiters are touched every simulated cycle; a __dict__ per "
            "instance costs memory and cache misses, and open attribute "
            "namespaces hide typos that determinism tests can't see.  "
            "Dataclasses anywhere on the hot path must declare slots=True; "
            "plain classes in the network substrate "
            "(SLOTTED_CLASS_PREFIXES) must define __slots__ in the class "
            "body."
        ),
        hint=(
            "Declare the dataclass with @dataclass(slots=True, ...), or add "
            "a __slots__ tuple to the class body."
        ),
        scope=HOT_PATH_PREFIXES,
    ),
    Rule(
        code="SIM007",
        title="iteration over an unordered or history-ordered container",
        rationale=(
            "Engine state feeds the kernel's (time, priority, FIFO) event "
            "order, so *what order you touch things in* is part of the "
            "result.  set/frozenset iterate in hash order (PYTHONHASHSEED-"
            "dependent for strings), and dict.keys()/.values() iterate in "
            "construction-history order — both change silently when "
            "unrelated code is refactored, which is exactly the drift the "
            "same-seed auditor can only catch after the fact.  The batch "
            "slab orchestrator (repro.perf.executor) is in scope for the "
            "same reason: slab grouping iterates dicts whose order must be "
            "provably immaterial to results."
        ),
        hint=(
            "Iterate `sorted(...)` over the keys (then index), or suppress "
            "with `# sim-lint: ignore[SIM007]` plus a comment proving the "
            "body is order-insensitive."
        ),
        scope=VECTOR_ENGINE_PREFIXES,
    ),
    Rule(
        code="SIM008",
        title="RNG machinery constructed outside repro.sim.rng",
        rationale=(
            "Every stochastic draw must route through a named "
            "`RngRegistry.stream(...)` generator.  SIM002 bans unseeded "
            "draws; SIM008 closes the remaining hole: hand-built seeded "
            "machinery (`np.random.Generator`, `SeedSequence`, `PCG64`, "
            "bare `Random()`) outside :mod:`repro.sim.rng` creates streams "
            "the registry cannot see, so they escape the common-random-"
            "numbers discipline and the spawn-key collision guarantees.  "
            "In the engine scope (VECTOR_ENGINE_PREFIXES) the rule also "
            "flags *vectorized* draws — `rng.<dist>(..., size=n)` on an "
            "rng-ish receiver — because bulk draws must go through the "
            "chunk-consistent helpers in repro.sim.rng "
            "(`geometric_gap_array`, `integer_array`) or the scalar and "
            "batch engines stop consuming streams identically."
        ),
        hint=(
            "Accept an `np.random.Generator` parameter and have the caller "
            "pass `registry.stream('<entity name>')`; only repro.sim.rng "
            "may construct generator machinery.  For bulk draws in engine "
            "code, use repro.sim.rng.geometric_gap_array / integer_array "
            "instead of direct `size=` draws."
        ),
        scope=REPRO_PREFIXES,
        exempt=("repro.sim.rng",),
    ),
    Rule(
        code="SIM009",
        title="host environment read in simulation state code",
        rationale=(
            "A run must be a pure function of (config, seed).  "
            "`os.environ`/`os.getenv` leak per-host configuration and "
            "`os.urandom` leaks entropy into simulation state, so the same "
            "seed stops meaning the same run.  Wall-clock calls in the "
            "simulation-state packages outside SIM001's core scope "
            "(traffic, power, metrics) are flagged here for the same "
            "reason.  Benchmarks, the CLI and the experiment harness are "
            "exempt by path, and the sweep service (repro.service) is "
            "exempt explicitly — a long-running server legitimately reads "
            "wall clock and environment (spool paths, cache dirs, audit "
            "timestamps); determinism lives below it, in the runs it "
            "schedules."
        ),
        hint=(
            "Thread configuration through ERapidConfig/WorkloadSpec and "
            "read the environment in the harness layer (repro.perf, "
            "repro.cli, repro.experiments, repro.service) only."
        ),
        scope=SIM_STATE_PREFIXES,
        exempt=("repro.service",),
    ),
    Rule(
        code="SIM010",
        title="zero-delay p0 event in engine code",
        rationale=(
            "`schedule(0.0, ...)`/`schedule_fast(0.0, ...)` enqueue at "
            "priority 0, *ahead* of every pending continuation at the same "
            "timestamp — the same-time ordering ambiguity PR 3 and PR 4 "
            "fixed by hand.  Engine-layer same-instant hops must use the "
            "priority-1 continuation class so cascades replay in FIFO "
            "order regardless of who scheduled first."
        ),
        hint=(
            "Use `sim.schedule_late(0.0, ...)` for same-instant engine "
            "continuations; literal zero-delay p0 scheduling belongs only "
            "to the kernel's own wakeup machinery (repro.sim)."
        ),
        scope=("repro.core", "repro.network"),
    ),
    Rule(
        code="SIM011",
        title="fractional float arithmetic on cycle counters",
        rationale=(
            "The cycle-synchronous clock loop keeps every tick time on the "
            "integer cycle grid (integral-valued floats); PR 4's router "
            "phases are only correct under that discipline.  True division "
            "on a cycle/time counter, or combining one with a fractional "
            "float constant, silently moves ticks off the grid where "
            "`now.is_integer()` gating and DueQueue monotonicity break."
        ),
        hint=(
            "Keep cycle arithmetic on integers or integral floats: use "
            "`//`, integer constants, or pre-scaled integral steps; never "
            "`/` or fractional literals on a tick/cycle counter."
        ),
        scope=CYCLE_PREFIXES,
    ),
)

#: The codes the linter does not evaluate: a file it cannot parse, and the
#: findings of the layering and frozen-manifest passes.  Same shape as
#: :data:`RULES`, so the hint of every code, in text or JSON, reads one
#: table.
_EXTRA_RULES: Tuple[Rule, ...] = (
    Rule(
        code="PARSE",
        title="file does not parse",
        rationale=(
            "The linter checks the AST; a file it cannot read or parse "
            "cannot be checked, so it fails loudly instead of being "
            "skipped."
        ),
        hint="Fix the syntax error (or the file's encoding) and lint again.",
    ),
    Rule(
        code="LAYER",
        title="import edge violates the declared package DAG",
        rationale=(
            "Each package may import only the layers below it, so the "
            "kernel never grows a dependency on the engines built on it."
        ),
        hint=(
            "See repro.analysis.layering.LAYER_DAG for the declared edges "
            "and EDGE_ALLOWLIST for sanctioned exceptions."
        ),
    ),
    Rule(
        code="MODULE",
        title="import outside a module-scoped budget",
        rationale=(
            "Some modules (the vectorized batch tier and its pure-array "
            "helpers) carry an import budget tighter than their "
            "package's, so they cannot quietly re-enter scalar "
            "simulation code."
        ),
        hint=(
            "See repro.analysis.layering.MODULE_LAYERS for the module's "
            "allowed layers."
        ),
    ),
    Rule(
        code="LEGACY",
        title="frozen legacy oracle imported from src/",
        rationale=(
            "The repro.perf.legacy* modules are bit-identity oracles whose "
            "value is standing still; production code must never depend "
            "on one."
        ),
        hint="Only tests/ may import repro.perf.legacy* modules.",
    ),
    Rule(
        code="UNDECLARED",
        title="package missing from the layering DAG",
        rationale=(
            "A new package must take an explicit position in the layering "
            "DAG before it imports across packages."
        ),
        hint="Add the package to repro.analysis.layering.LAYER_DAG.",
    ),
    Rule(
        code="FROZEN",
        title="frozen oracle drifted from its pinned SHA-256",
        rationale=(
            "The equivalence gates compare live engines against the "
            "frozen oracles bit-for-bit; an edit to one moves the goalpost "
            "silently."
        ),
        hint=(
            "repro/perf/legacy*.py are bit-identity oracles; restore the "
            "file or (only alongside a new equivalence gate) regenerate "
            "the manifest with --write-manifest."
        ),
    ),
)

_BY_CODE = {r.code: r for r in RULES + _EXTRA_RULES}


def rule_for(code: str) -> Rule:
    """Look up the rule of any finding code (``SIMxxx``, ``LAYER``, ...)."""
    return _BY_CODE[code]
