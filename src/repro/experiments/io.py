"""CSV persistence for sweep results.

Every figure bench can dump its measured series next to the printed chart
so downstream users can re-plot with real tooling.
"""

from __future__ import annotations

import csv
import io
import locale
import os
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.errors import MeasurementError
from repro.metrics.collector import RunResult

__all__ = ["sweep_rows", "write_csv", "read_csv", "write_text"]

_FIELDS = [
    "policy",
    "pattern",
    "load",
    "throughput",
    "offered",
    "avg_latency",
    "p99_latency",
    "power_mw",
    "grants",
    "dpm_transitions",
]


def sweep_rows(results: Dict[str, List[RunResult]]) -> List[Dict[str, object]]:
    """Flatten {policy: [RunResult per load]} into CSV-ready dicts."""
    rows: List[Dict[str, object]] = []
    for policy, runs in results.items():
        for r in runs:
            rows.append(
                {
                    "policy": policy,
                    "pattern": r.extra.get("pattern", ""),
                    "load": r.extra.get("load", ""),
                    "throughput": r.throughput,
                    "offered": r.offered,
                    "avg_latency": r.avg_latency,
                    "p99_latency": r.p99_latency,
                    "power_mw": r.power_mw,
                    "grants": r.extra.get("grants", 0),
                    "dpm_transitions": r.extra.get("dpm_transitions", 0),
                }
            )
    return rows


def write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` through one descriptor: the locale
    encoding, no newline translation (``Path.write_text``'s bytes on
    POSIX)."""
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_csv(path: Union[str, Path], rows: Sequence[Dict[str, object]]) -> Path:
    """Write rows (must cover the standard fields) to ``path``."""
    path = Path(path)
    if not rows:
        raise MeasurementError("refusing to write an empty CSV")
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=_FIELDS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    write_text(path, buf.getvalue())
    return path


def read_csv(path: Union[str, Path]) -> List[Dict[str, str]]:
    """Read a CSV produced by :func:`write_csv`."""
    path = Path(path)
    with path.open() as fh:
        return list(csv.DictReader(fh))
