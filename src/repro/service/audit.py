"""Append-only audit log: one JSON line per job lifecycle transition.

Every submission, dedup, rejection, start, completion and failure lands
here with a wall-clock timestamp, so service activity is attributable
after the fact — which job ran when, who piggybacked on it, what was
rejected under backpressure.

Each record is serialized to a single line and written with one
``os.write`` on an ``O_APPEND`` descriptor: POSIX appends of one small
write are atomic, so concurrent appenders interleave whole records and a
crash can lose at most the final line — the log never corrupts earlier
history.  Records carry a monotonically increasing per-log ``seq`` for
stable ordering among same-timestamp entries; stamping and writing
happen under one lock, so ``seq`` order is file order even when the
service's job threads append at once.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["AuditLog"]


class AuditLog:
    """Append-only JSONL audit trail."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def append(self, action: str, **details: Any) -> Dict[str, Any]:
        """Append one record; returns it (with ts/seq stamped)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            record: Dict[str, Any] = {
                "ts": time.time(),
                "seq": next(self._seq),
                "action": action,
            }
            record.update(details)
            line = json.dumps(record, sort_keys=True) + "\n"
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        return record

    def read_all(self) -> List[Dict[str, Any]]:
        """Every parseable record, in file order (a torn final line —
        possible only after a crash mid-append — is skipped)."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        records: List[Dict[str, Any]] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if isinstance(data, dict):
                records.append(data)
        return records
