"""File-spool front end: dependency-free job submission and status.

The service's wire protocol is a directory, which keeps the front end
free of network dependencies and trivially testable:

* ``<spool>/incoming/`` — clients drop one JSON job spec per file
  (atomic temp-file + rename, so the server never reads a half-written
  spec).  ``erapid submit`` writes here.
* ``<spool>/status/<job_key>.json`` — the server mirrors each job's
  status here on every transition and progress event (atomic replace).
  ``erapid jobs`` reads here.  The file name is the job's content
  address, so a client can compute it locally (the spec is a pure
  function) and poll without ever talking to the server process.

:class:`SpoolServer` owns the loop: scan incoming submissions into the
:class:`~repro.service.orchestrator.SweepService`, mirror status, repeat.
Unparseable specs become ``invalid`` status entries; a full queue becomes
a ``rejected`` status — explicit backpressure, never a silently dropped
file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import JobSpecError, QueueFullError
from repro.perf.cache import _atomic_write
from repro.service.orchestrator import Job, SweepService
from repro.service.spec import JobSpec

__all__ = [
    "SpoolServer",
    "ensure_spool",
    "submit_to_spool",
    "read_status",
    "list_statuses",
    "status_path",
]

_INCOMING = "incoming"
_STATUS = "status"

_submission_counter = itertools.count(1)


def ensure_spool(spool: Union[str, Path]) -> Path:
    root = Path(spool)
    (root / _INCOMING).mkdir(parents=True, exist_ok=True)
    (root / _STATUS).mkdir(parents=True, exist_ok=True)
    return root


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _atomic_write(path.parent, [(path.name, text)], fsync=False)


def submit_to_spool(spool: Union[str, Path], spec: JobSpec) -> str:
    """Drop ``spec`` into the spool; returns its job key (= status name)."""
    root = ensure_spool(spool)
    key = spec.job_key()
    name = f"{time.time_ns():x}-{os.getpid()}-{next(_submission_counter)}"
    _atomic_write_json(root / _INCOMING / f"{name}.json", spec.to_dict())
    return key


def status_path(spool: Union[str, Path], key: str) -> Path:
    return Path(spool) / _STATUS / f"{key}.json"


def read_status(spool: Union[str, Path], key: str) -> Optional[Dict[str, Any]]:
    """The mirrored status for ``key``, or None if the server has not
    seen (or not yet acknowledged) such a job."""
    try:
        data = json.loads(status_path(spool, key).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def list_statuses(spool: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every mirrored status, sorted by status name (job key)."""
    status_dir = Path(spool) / _STATUS
    if not status_dir.is_dir():
        return []
    out: List[Dict[str, Any]] = []
    for f in sorted(status_dir.glob("*.json")):
        try:
            data = json.loads(f.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(data, dict):
            data.setdefault("job_key", f.stem)
            out.append(data)
    return out


class SpoolServer:
    """Scan loop binding a spool directory to a :class:`SweepService`."""

    def __init__(
        self,
        spool: Union[str, Path],
        service: SweepService,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spool = ensure_spool(spool)
        self.service = service
        self.log = log
        #: Held from snapshot to file replace, so a status file never
        #: goes back to an older snapshot than the last one written.
        self._status_lock = threading.Lock()
        # Mirror every job transition/progress event into status files.
        service.on_update = self._write_status

    # ------------------------------------------------------------------
    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _write_status(self, job: Job) -> None:
        with self._status_lock:
            status = self.service.snapshot(job)
            _atomic_write_json(status_path(self.spool, job.key), status)
        if status["state"] in ("completed", "failed"):
            counts = status.get("counts")
            detail = (
                f" ({counts['hits']}/{counts['total']} cache hits, "
                f"{counts['executed']} executed)"
                if counts
                else f" ({status.get('error')})"
            )
            self._say(f"job {job.job_id} {status['state']}{detail}")

    def _reject_status(self, name: str, state: str, error: str) -> None:
        _atomic_write_json(
            status_path(self.spool, name),
            {"state": state, "error": error, "job_key": name},
        )
        self._say(f"submission {name} {state}: {error}")

    # ------------------------------------------------------------------
    def scan_once(self) -> int:
        """Ingest every spec currently in ``incoming/``; returns count."""
        incoming = self.spool / _INCOMING
        processed = 0
        for path in sorted(incoming.glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                spec = JobSpec.from_dict(data)
            except (ValueError, JobSpecError) as exc:
                self._reject_status(path.stem, "invalid", str(exc))
                path.unlink(missing_ok=True)
                processed += 1
                continue
            try:
                handle = self.service.submit(spec)
            except QueueFullError as exc:
                self._reject_status(spec.job_key(), "rejected", str(exc))
                path.unlink(missing_ok=True)
                processed += 1
                continue
            path.unlink(missing_ok=True)
            processed += 1
            verb = "deduped onto" if handle.deduped else "accepted as"
            self._say(
                f"submission {path.stem} {verb} job {handle.job_id} "
                f"[{spec.kind}/{spec.priority}, {spec.total_runs} runs]"
            )
        return processed

    def serve_once(self, timeout: Optional[float] = None) -> None:
        """Ingest the current spool contents and drain the service."""
        deadline_left = timeout
        started = time.monotonic()
        while True:
            self.scan_once()
            if timeout is not None:
                deadline_left = timeout - (time.monotonic() - started)
                if deadline_left <= 0:
                    raise TimeoutError("serve_once timed out")
            if self.service.drain(timeout=deadline_left):
                # Drained — but a submission may have landed while the
                # last job ran; exit only once incoming is empty too.
                if not list((self.spool / _INCOMING).glob("*.json")):
                    return

    def serve_forever(
        self,
        poll: float = 0.2,
        idle_exit: Optional[float] = None,
    ) -> None:
        """Scan/execute until interrupted (or idle for ``idle_exit`` s)."""
        idle_since = time.monotonic()
        while True:
            processed = self.scan_once()
            busy = processed > 0 or not self.service.drain(timeout=0.0)
            if busy:
                idle_since = time.monotonic()
            elif (
                idle_exit is not None
                and time.monotonic() - idle_since >= idle_exit
            ):
                self._say(f"idle for {idle_exit:.0f}s; exiting")
                return
            time.sleep(poll)
