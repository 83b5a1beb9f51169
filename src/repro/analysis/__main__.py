"""CLI plumbing for ``python -m repro.analysis``.

Subcommands
-----------
``lint PATH...``
    Run the SIM001–SIM011 lint pass.  Exit 0 when there are no findings;
    exit 1 otherwise.
``layering [PATH...]``
    Check the real import graph against the declared package DAG and the
    frozen-legacy import prohibition.  Exit 0 when clean.
``frozen``
    Verify the SHA-256 manifest of the frozen bit-identity oracles
    (``analysis-frozen.json``); ``--write-manifest`` regenerates it.
``determinism``
    Run the determinism audit (same-seed and permuted-insertion-order
    repeatability on both engines).  Exit 0 on pass.

The three static passes (lint, layering, frozen) return one
:class:`~repro.analysis.linter.Finding` list each and print it through
one reporter: ``--format=json`` emits ``{"ok": bool, "findings": [...]}``.
``determinism`` has its own JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.determinism import audit
from repro.analysis.frozen import verify_manifest, write_manifest
from repro.analysis.layering import analyze_paths, format_dag
from repro.analysis.linter import Finding, lint_paths
from repro.errors import ReproError

__all__ = ["main"]

_DEFAULT_MANIFEST = "analysis-frozen.json"


def _report(
    args: argparse.Namespace, name: str, findings: Sequence[Finding], clean: str
) -> int:
    """Print one static pass's findings in ``args.format``; exit 1 on any."""
    if args.format == "json":
        payload = {"ok": not findings, "findings": [f.to_json() for f in findings]}
        print(json.dumps(payload, indent=2))
    else:
        for f in findings:
            print(f.format())
            print(f"    hint: {f.hint}")
        print(f"{name}: {len(findings)} finding(s)" if findings else f"{name}: {clean}")
    return 1 if findings else 0


def _existing(raw: Sequence[str]) -> Optional[List[Path]]:
    """``raw`` as paths, or ``None`` (after an error line) if any is missing."""
    paths = [Path(p) for p in raw]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return None
    return paths


def _run_lint(args: argparse.Namespace) -> int:
    paths = _existing(args.paths)
    if paths is None:
        return 2
    findings = lint_paths(paths, include_fixtures=args.include_fixtures)
    return _report(args, "lint", findings, "clean")


def _run_layering(args: argparse.Namespace) -> int:
    if args.print_dag:
        print(format_dag())
        return 0
    paths = _existing(args.paths or ["src"])
    if paths is None:
        return 2
    edges, findings = analyze_paths(paths)
    return _report(
        args, "layering", findings, f"clean ({len(edges)} import edge(s) checked)"
    )


def _run_frozen(args: argparse.Namespace) -> int:
    root = Path(args.root)
    manifest_path = Path(args.manifest) if args.manifest else root / _DEFAULT_MANIFEST
    if args.write_manifest:
        files = write_manifest(root, manifest_path)
        print(f"wrote {len(files)} fingerprint(s) to {manifest_path}")
        return 0
    try:
        findings = verify_manifest(root, manifest_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _report(
        args, "frozen", findings, "all oracle fingerprints match the manifest"
    )


def _run_determinism(args: argparse.Namespace) -> int:
    try:
        report = audit(
            seed=args.seed,
            boards=args.boards,
            nodes_per_board=args.nodes_per_board,
            include_detailed=not args.fast_only,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Correctness tooling: simulation-invariant linter, "
        "import-layering analyzer, frozen-oracle integrity manifest, and "
        "determinism auditor for the E-RAPID reproduction.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the SIM001–SIM011 lint pass")
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument(
        "--include-fixtures",
        action="store_true",
        help="also lint */fixtures/* files (skipped by default: the test "
        "suite keeps intentionally-bad snippets there)",
    )
    lint.set_defaults(func=_run_lint)

    layering = sub.add_parser(
        "layering", help="check imports against the declared package DAG"
    )
    layering.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to scan (default: src)",
    )
    layering.add_argument(
        "--print-dag",
        action="store_true",
        help="print the declared DAG and exit",
    )
    layering.set_defaults(func=_run_layering)

    frozen = sub.add_parser(
        "frozen", help="verify the frozen-oracle integrity manifest"
    )
    frozen.add_argument(
        "--root", default=".", help="repository root (default: .)"
    )
    frozen.add_argument(
        "--manifest",
        default=None,
        help=f"manifest path (default: <root>/{_DEFAULT_MANIFEST})",
    )
    frozen.add_argument(
        "--write-manifest",
        action="store_true",
        help="regenerate the manifest from the on-disk frozen files "
        "(legitimate ONLY alongside a new equivalence gate)",
    )
    frozen.set_defaults(func=_run_frozen)

    det = sub.add_parser("determinism", help="run the determinism audit")
    det.add_argument("--seed", type=int, default=1)
    det.add_argument("--boards", type=int, default=4)
    det.add_argument("--nodes-per-board", type=int, default=4)
    det.add_argument(
        "--fast-only",
        action="store_true",
        help="skip the detailed-engine checks (quick local iteration)",
    )
    det.set_defaults(func=_run_determinism)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    rc = args.func(args)
    return int(rc)


if __name__ == "__main__":
    sys.exit(main())
