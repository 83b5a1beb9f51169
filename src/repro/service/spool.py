"""File-spool front end: dependency-free job submission and status.

The service's wire protocol is a directory, which keeps the front end
free of network dependencies and trivially testable:

* ``<spool>/incoming/`` — clients drop one JSON job spec per file
  (atomic temp-file + rename, so the server never reads a half-written
  spec).  ``erapid submit`` writes here.
* ``<spool>/accepted/`` — the server moves each valid spec here when it
  submits it, and deletes it only after the job's terminal status
  (``completed`` or ``failed``) is written.  A server killed with jobs
  queued or running therefore loses none: the next server on the spool
  re-submits every accepted spec whose job has no terminal status, and
  deletes the ones that have one.  The run cache makes re-executing a
  half-done job cheap, and its results are those of an undisturbed run.
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
from repro.service.orchestrator import JOB_TERMINAL_STATES, Job, SweepService
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
_ACCEPTED = "accepted"
_STATUS = "status"

_submission_counter = itertools.count(1)


def ensure_spool(spool: Union[str, Path]) -> Path:
    root = Path(spool)
    for sub in (_INCOMING, _ACCEPTED, _STATUS):
        (root / sub).mkdir(parents=True, exist_ok=True)
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
        #: goes back to an older snapshot than the last one written; also
        #: guards the two maps below.
        self._status_lock = threading.Lock()
        #: Accepted spec files this server has submitted -> their job id,
        #: and job id -> those files, deleted with its terminal status.
        self._claimed: Dict[Path, str] = {}
        self._retire: Dict[str, List[Path]] = {}
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
            if status["state"] in JOB_TERMINAL_STATES:
                self._retire_specs(job.job_id)
        if status["state"] in JOB_TERMINAL_STATES:
            counts = status.get("counts")
            detail = (
                f" ({counts['hits']}/{counts['total']} cache hits, "
                f"{counts['executed']} executed)"
                if counts
                else f" ({status.get('error')})"
            )
            self._say(f"job {job.job_id} {status['state']}{detail}")

    def _retire_specs(self, job_id: str) -> None:
        """Delete the accepted specs of a job whose terminal status is on
        disk (callers hold ``_status_lock``)."""
        for path in self._retire.pop(job_id, ()):
            del self._claimed[path]
            path.unlink(missing_ok=True)

    def _reject_status(self, name: str, state: str, error: str) -> None:
        _atomic_write_json(
            status_path(self.spool, name),
            {"state": state, "error": error, "job_key": name},
        )
        self._say(f"submission {name} {state}: {error}")

    # ------------------------------------------------------------------
    def _unclaimed(self) -> List[Path]:
        """Accepted specs no job of this server owns: a previous server's."""
        with self._status_lock:
            claimed = set(self._claimed)
        return [
            p for p in sorted((self.spool / _ACCEPTED).glob("*.json"))
            if p not in claimed
        ]

    def _claim(self, path: Path, spec: JobSpec) -> None:
        """Submit the accepted spec at ``path``; the file now belongs to
        the job (deleted with its terminal status).  Raises
        :class:`QueueFullError` under backpressure."""
        handle = self.service.submit(spec)
        with self._status_lock:
            self._claimed[path] = handle.job_id
            self._retire.setdefault(handle.job_id, []).append(path)
            if handle.state in JOB_TERMINAL_STATES:
                # The job ended (and its status was written) before the
                # file was claimed.
                self._retire_specs(handle.job_id)
        self._say(
            f"submission {path.stem} "
            f"{'deduped onto' if handle.deduped else 'accepted as'} job "
            f"{handle.job_id} [{spec.kind}/{spec.priority}, "
            f"{spec.total_runs} runs]"
        )

    def scan_once(self) -> int:
        """Ingest every spec currently in ``incoming/``, after the accepted
        specs a previous server left unfinished; returns count."""
        processed = 0
        for path in self._unclaimed():
            try:
                spec = JobSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError, JobSpecError):
                path.unlink(missing_ok=True)  # was valid when accepted
                continue
            status = read_status(self.spool, spec.job_key())
            if status is not None and status.get("state") in JOB_TERMINAL_STATES:
                path.unlink(missing_ok=True)
                continue
            try:
                self._claim(path, spec)
            except QueueFullError:
                break  # still accepted: retried on the next scan
            processed += 1
        for path in sorted((self.spool / _INCOMING).glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                spec = JobSpec.from_dict(data)
            except (ValueError, JobSpecError) as exc:
                self._reject_status(path.stem, "invalid", str(exc))
                path.unlink(missing_ok=True)
                processed += 1
                continue
            accepted = self.spool / _ACCEPTED / path.name
            os.replace(path, accepted)
            processed += 1
            try:
                self._claim(accepted, spec)
            except QueueFullError as exc:
                self._reject_status(spec.job_key(), "rejected", str(exc))
                accepted.unlink(missing_ok=True)
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
                # last job ran, or a recovered spec may have met a full
                # queue; exit only once nothing is left to ingest.
                if not (
                    list((self.spool / _INCOMING).glob("*.json"))
                    or self._unclaimed()
                ):
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
