"""Append-only audit log: one JSON line per job lifecycle transition.

Every submission, dedup, rejection, start, completion and failure lands
here with a wall-clock timestamp, so service activity is attributable
after the fact — which job ran when, who piggybacked on it, what was
rejected under backpressure.

Records go through the run cache's JSON-line helpers
(:func:`repro.perf.cache.append_json_line`, ``read_json_lines``) and
carry a monotonically increasing per-log ``seq`` for stable ordering
among same-timestamp entries; stamping and writing happen under one
lock, so ``seq`` order is file order even when the service's job threads
append at once.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.perf.cache import append_json_line, read_json_lines

__all__ = ["AuditLog"]


class AuditLog:
    """Append-only JSONL audit trail."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def append(self, action: str, **details: Any) -> Dict[str, Any]:
        """Append one record; returns it (with ts/seq stamped)."""
        with self._lock:
            record: Dict[str, Any] = {
                "ts": time.time(),
                "seq": next(self._seq),
                "action": action,
            }
            record.update(details)
            append_json_line(self.path, record)
        return record

    def read_all(self) -> List[Dict[str, Any]]:
        """Every parseable record, in file order (a torn final line —
        possible only after a crash mid-append — is skipped)."""
        return read_json_lines(self.path)
