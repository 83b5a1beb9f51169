"""Persistent per-job artifact store: manifests under a stable layout.

Every completed job writes one manifest —
``<root>/artifacts/<job_id>/manifest.json`` — recording everything needed
to replay and attribute the job:

* the full :class:`~repro.service.spec.JobSpec` (``spec``) — resubmitting
  it reproduces the work bit-identically;
* ``kernel_version`` and the job's content address (``job_key``);
* per-run :class:`~repro.service.runner.RunRecord` rows (``runs``): the
  run-cache key and whether it was answered from disk;
* ``counts`` (total / hits / executed), ``sweep_fingerprint`` of the
  results, wall-clock ``timings``, and the subscriber count.

Manifests are written atomically (:func:`repro.perf.cache._atomic_write`:
temp file + ``os.replace``, no temp file left behind on failure) so a
concurrent reader never sees a torn manifest.  The store root defaults to
``$ERAPID_ARTIFACT_DIR`` or ``~/.local/share/erapid``; the append-only
audit log (:mod:`repro.service.audit`) lives beside the manifests.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.perf.cache import _atomic_write

__all__ = ["ArtifactStore", "default_artifact_root", "MANIFEST_FORMAT"]

#: Bump when the manifest schema changes.
MANIFEST_FORMAT = 1

_ENV_VAR = "ERAPID_ARTIFACT_DIR"


def default_artifact_root() -> Path:
    """``$ERAPID_ARTIFACT_DIR`` when set, else ``~/.local/share/erapid``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".local" / "share" / "erapid"


class ArtifactStore:
    """Manifest store rooted at a directory (created lazily)."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_artifact_root()

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    @property
    def audit_path(self) -> Path:
        return self.root / "audits.jsonl"

    def manifest_path(self, job_id: str) -> Path:
        return self.artifacts_dir / job_id / "manifest.json"

    # ------------------------------------------------------------------
    def write_manifest(self, manifest: Dict[str, Any]) -> Path:
        """Atomically persist one job manifest; returns its path."""
        job_id = manifest.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ServiceError("manifest needs a non-empty job_id")
        path = self.manifest_path(job_id)
        payload = json.dumps(
            {"manifest_format": MANIFEST_FORMAT, **manifest},
            sort_keys=True,
            indent=2,
        )
        # Durability as before: atomic, not fsynced.
        _atomic_write(path.parent, [(path.name, payload + "\n")], fsync=False)
        return path

    def read_manifest(self, job_id: str) -> Dict[str, Any]:
        path = self.manifest_path(job_id)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ServiceError(f"no manifest for job {job_id!r}: {exc}") from exc
        except ValueError as exc:
            raise ServiceError(
                f"corrupt manifest for job {job_id!r}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ServiceError(f"corrupt manifest for job {job_id!r}")
        return data

    def list_job_ids(self) -> List[str]:
        """Job ids with a manifest on disk, sorted (ids embed submit time)."""
        if not self.artifacts_dir.is_dir():
            return []
        return sorted(
            d.name
            for d in self.artifacts_dir.iterdir()
            if d.is_dir() and (d / "manifest.json").is_file()
        )
