"""Frozen-legacy integrity manifest.

The bit-identity gates of PRs 2–4 compare the rewritten kernel and engines
against *frozen* copies of the pre-rewrite code:

* ``src/repro/perf/legacy.py`` — the pre-optimization event kernel,
* ``src/repro/perf/legacy_engine.py`` — the coroutine FastEngine,
* ``src/repro/perf/legacy_detailed.py`` — the process-per-NI detailed
  engine.

Those files are *oracles*: their entire value is standing still.  A
drive-by edit to one of them would make the equivalence gates compare the
live code against a moved goalpost — a behavior change could launder
itself past every bit-identity test while all of CI stays green.

This module pins each oracle's SHA-256 content fingerprint in a tracked
manifest (``analysis-frozen.json`` at the repo root) and verifies it in
``make check`` and CI.  Regenerating the manifest requires the explicit
``--write-manifest`` flag — legitimate **only** alongside a new frozen
copy and a new equivalence gate, never to absorb an edit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.linter import Finding

__all__ = [
    "FROZEN_FILES",
    "file_digest",
    "compute_manifest",
    "write_manifest",
    "load_manifest",
    "verify_manifest",
]

#: Repo-root-relative paths of the frozen bit-identity oracles.
FROZEN_FILES: Tuple[str, ...] = (
    "src/repro/perf/legacy.py",
    "src/repro/perf/legacy_engine.py",
    "src/repro/perf/legacy_detailed.py",
)

_FORMAT_VERSION = 1

_COMMENT = (
    "SHA-256 fingerprints of the frozen bit-identity oracles "
    "(repro/perf/legacy*.py). Verified by `python -m repro.analysis "
    "frozen`; regenerate with --write-manifest ONLY alongside a new "
    "equivalence gate, never to absorb an edit to a frozen file."
)


def _mismatch(path: str, kind: str, expected: str, actual: str) -> Finding:
    """One integrity failure: a frozen file or manifest entry drifted.

    ``kind`` is ``hash-mismatch``, ``missing-file``, ``missing-entry``,
    ``stale-entry`` or ``missing-manifest``; it leads the message.
    """
    return Finding(
        path, 1, 0, "FROZEN",
        f"{kind} (expected {expected or '-'}, got {actual or '-'})",
    )


def file_digest(path: Path) -> str:
    """``sha256:<hex>`` over the file's raw bytes."""
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def compute_manifest(root: Path) -> Dict[str, str]:
    """Current fingerprints of every frozen file under ``root``."""
    out: Dict[str, str] = {}
    for rel in FROZEN_FILES:
        p = root / rel
        if p.exists():
            out[rel] = file_digest(p)
    return out


def write_manifest(root: Path, manifest_path: Path) -> Dict[str, str]:
    """Regenerate the manifest file; returns the written fingerprints."""
    files = compute_manifest(root)
    payload = {
        "version": _FORMAT_VERSION,
        "comment": _COMMENT,
        "files": {rel: files[rel] for rel in sorted(files)},
    }
    manifest_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return files


def load_manifest(manifest_path: Path) -> Dict[str, str]:
    """Read a manifest file's ``files`` table (raises ValueError if bad)."""
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not isinstance(data.get("files"), dict):
        raise ValueError(f"malformed frozen manifest {manifest_path}")
    return {str(k): str(v) for k, v in data["files"].items()}


def verify_manifest(root: Path, manifest_path: Path) -> List[Finding]:
    """Compare on-disk frozen files against the tracked manifest.

    Returns an empty list when every oracle matches its pinned
    fingerprint, the manifest covers exactly :data:`FROZEN_FILES`, and no
    frozen file is missing from disk; otherwise one ``FROZEN`` finding per
    drifted file or entry.
    """
    if not manifest_path.exists():
        return [
            _mismatch(
                str(manifest_path),
                "missing-manifest",
                "tracked manifest file",
                "absent",
            )
        ]
    recorded = load_manifest(manifest_path)
    mismatches: List[Finding] = []
    for rel in FROZEN_FILES:
        p = root / rel
        expected = recorded.get(rel, "")
        if not p.exists():
            mismatches.append(_mismatch(rel, "missing-file", expected, "absent"))
            continue
        actual = file_digest(p)
        if not expected:
            mismatches.append(_mismatch(rel, "missing-entry", "", actual))
        elif actual != expected:
            mismatches.append(_mismatch(rel, "hash-mismatch", expected, actual))
    for rel in sorted(set(recorded) - set(FROZEN_FILES)):
        mismatches.append(
            _mismatch(rel, "stale-entry", recorded[rel], "not a frozen file")
        )
    return mismatches
