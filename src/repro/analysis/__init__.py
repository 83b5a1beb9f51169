"""Correctness tooling for the E-RAPID reproduction.

The headline results (power savings and latency under Lock-Step
reconfiguration) rest on *bit-reproducible* discrete-event runs: common
random numbers make the four NP/P × NB/B configurations comparable, and
every figure is a diff between seeded runs.  This package enforces that
discipline mechanically:

* :mod:`repro.analysis.linter` — an AST lint pass with repo-specific rules
  (SIM001–SIM011): no wall-clock or environment reads in simulation code,
  no randomness outside :class:`repro.sim.rng.RngRegistry` streams, no
  mutable default arguments, no float equality on simulation timestamps,
  no kernel re-entry from callbacks, ``slots=True`` on hot-path
  dataclasses, no iteration over unordered containers in engine code, no
  RNG machinery construction outside the registry, no literal zero-delay
  p0 events where a ``schedule_late`` continuation is meant, and no float
  arithmetic off the integer cycle grid.
* :mod:`repro.analysis.layering` — an import-layering analyzer that checks
  the real (AST-parsed) import graph against a declared package DAG, with
  a short allowlist for deliberate exceptions and a hard prohibition on
  importing the frozen ``repro.perf.legacy*`` oracles from production
  code.
* :mod:`repro.analysis.frozen` — a SHA-256 integrity manifest pinning the
  frozen bit-identity oracles (``analysis-frozen.json``); a drive-by edit
  to a legacy file fails ``make check`` and CI.
* :mod:`repro.analysis.determinism` — a determinism auditor that runs both
  engines twice under one seed plus twice under a permuted
  event-insertion order and diffs trace streams and metric summaries — a
  race detector for the event kernel.

The three static passes (lint, layering, frozen) return one result type,
:class:`~repro.analysis.linter.Finding` (path, line, col, code, message);
:mod:`repro.analysis.rules` holds the title, rationale and hint of every
code.

Run everything with ``python -m repro.analysis`` (see ``--help``).
"""

from __future__ import annotations

from repro.analysis.determinism import (
    AuditCheck,
    AuditReport,
    RunFingerprint,
    audit,
)
from repro.analysis.frozen import (
    FROZEN_FILES,
    compute_manifest,
    verify_manifest,
    write_manifest,
)
from repro.analysis.layering import (
    EDGE_ALLOWLIST,
    LAYER_DAG,
    ImportEdge,
    analyze_paths,
    check_layering,
    collect_import_edges,
)
from repro.analysis.linter import Finding, lint_paths, lint_source
from repro.analysis.rules import RULES, Rule

__all__ = [
    "AuditCheck",
    "AuditReport",
    "EDGE_ALLOWLIST",
    "FROZEN_FILES",
    "Finding",
    "ImportEdge",
    "LAYER_DAG",
    "RULES",
    "Rule",
    "RunFingerprint",
    "analyze_paths",
    "audit",
    "check_layering",
    "collect_import_edges",
    "compute_manifest",
    "lint_paths",
    "lint_source",
    "verify_manifest",
    "write_manifest",
]
