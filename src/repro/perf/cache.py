"""Content-addressed on-disk cache for simulation runs.

A simulation run is a pure function of ``(ERapidConfig, WorkloadSpec,
MeasurementPlan, kernel version)`` — the determinism auditor
(:mod:`repro.analysis.determinism`) exists to keep it that way.  That
purity makes runs memoizable: the cache key is a SHA-256 over a canonical
JSON encoding of the full run description, and the value is the
:class:`~repro.metrics.collector.RunResult` (whose JSON round trip is
exact, so a cache hit is bit-identical to re-running).

Invalidation is structural, never temporal:

* any config/workload/plan field change → different key;
* a kernel semantics change → :data:`repro.sim.kernel.KERNEL_VERSION`
  bump → different key for *every* run;
* a corrupt or truncated entry reads as a miss (and is re-written).

The store location is ``$ERAPID_CACHE_DIR`` when set, else
``~/.cache/erapid/runs``.  Entries are one JSON file per key, written
atomically (tmp file + rename) so concurrent workers can share a cache
directory.  A :func:`key_scope` shares key texts across one top-level
call; the hit/miss/put counters live in an append-only log per store.

An entry's value is whatever ``to_dict()`` of the stored object returned;
two shapes exist.  A plain run stores its ``RunResult``.  Each of Figure
3's probed runs stores its whole probe series
(:class:`repro.experiments.fig3.DesignSpaceResult`, keyed by
:meth:`repro.experiments.fig3.ProbedRun.cache_key` and read back with
``get_many(keys, decode=...)``).  ``erapid reproduce`` keeps its scalar
stages — those four entries and the ablation points, which are plain runs
— in the :meth:`RunCache.stages` store, ``<root>/stages/``, with its own
counter log, so the root's entries and counters are the sweep's alone.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import tempfile
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import ERapidConfig
from repro.errors import CacheError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.engines import CACHED, DEFAULT_ENGINE, ENGINES
from repro.power.levels import PowerLevelTable
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "RunCache",
    "run_cache_key",
    "default_cache_dir",
    "canonical_payload",
    "key_texts",
    "key_digest",
    "key_scope",
    "append_json_line",
    "read_json_lines",
]

#: Bump when the cache entry *format* changes (key derivation or value
#: encoding) — orthogonal to the kernel version, which tracks simulation
#: semantics.
CACHE_FORMAT = 1

_ENV_VAR = "ERAPID_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$ERAPID_CACHE_DIR`` when set, else ``~/.cache/erapid/runs``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "erapid" / "runs"


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """Reduce a run-description object to canonical JSON-ready data.

    Dataclasses encode as ``{"<ClassName>": {field: value, ...}}`` (the
    class name guards against two config types with coincidentally equal
    fields).  Anything unrecognized raises :class:`CacheError` — a new
    config component must be taught to the fingerprint, never silently
    repr'd (a memory address in the key would defeat caching; a partial
    encoding would alias distinct configs).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {type(obj).__name__: fields}
    if isinstance(obj, PowerLevelTable):
        return {"PowerLevelTable": [_canonical(l) for l in obj.levels]}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    raise _unknown(obj)


def _unknown(obj: Any) -> CacheError:
    return CacheError(
        f"cannot fingerprint {type(obj).__name__!r} for the run cache; "
        "teach repro.perf.cache._canonical and _encode about it"
    )


def canonical_payload(
    config: ERapidConfig,
    workload: WorkloadSpec,
    plan: MeasurementPlan,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, Any]:
    """The full, canonical description of one run (pre-hash).

    The engine's entry in :data:`repro.perf.engines.ENGINES` adds its
    ``key_fields()``.  Fast adds none, so it produces *exactly* the
    historical payload and every entry already on disk stays addressable;
    batch adds its name and :data:`repro.core.batch.BATCH_KERNEL_VERSION`,
    so vectorized-kernel changes invalidate batch entries without touching
    scalar ones.  An engine that is never cached raises
    :class:`CacheError`.

    This is the reference definition of a key: :func:`run_cache_key`
    hashes ``json.dumps(canonical_payload(...), sort_keys=True,
    separators=(",", ":"))``, though it emits that text through
    :func:`key_texts` without building this dict; the tests compare the
    two byte for byte.
    """
    from repro.sim.kernel import KERNEL_VERSION

    entry = ENGINES.get(engine)
    if entry is None or entry.key_fields is None:
        raise CacheError(f"unknown engine keyspace {engine!r}")
    return {
        "cache_format": CACHE_FORMAT,
        "kernel_version": KERNEL_VERSION,
        "config": _canonical(config),
        "workload": _canonical(workload),
        "plan": _canonical(plan),
        **entry.key_fields(),
    }


# ----------------------------------------------------------------------
# Key text: the canonical payload's JSON, emitted in one walk
# ----------------------------------------------------------------------
#: Per dataclass type: ``'{"<ClassName>":{'``, its fields as
#: ``('"<name>":', name)`` pairs in sorted order (``sort_keys``' order),
#: and whether the type is frozen (so its instances may be memoised).
#: A :class:`PowerLevelTable` type has no fields: its body is its levels.
_LAYOUTS: Dict[type, Tuple[str, Optional[Tuple[Tuple[str, str], ...]], bool]] = {}

#: ``float.__repr__`` of the non-finite floats -> ``json``'s spelling.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Identity memo of encoded objects: ``id(obj) -> (obj, text)``.  Holding
#: ``obj`` keeps its id from being reused while the memo lives.
_Memo = Dict[int, Tuple[Any, str]]

#: The open :func:`key_scope`'s memo (a new thread starts without one).
_SCOPE: ContextVar[Optional[_Memo]] = ContextVar("key_scope", default=None)


@contextmanager
def key_scope() -> Iterator[None]:
    """Share key texts across every key derived inside the block: each
    frozen dataclass instance (and :class:`PowerLevelTable`) is encoded
    once, then looked up by identity, never equality —
    ``MeasurementPlan(8000) == MeasurementPlan(8000.0)``, yet the two key
    differently.  A mutable :class:`WorkloadSpec` is encoded each time.  A
    nested scope joins the open one; the outermost drops the memo, and
    every object it holds, on exit."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _encode(obj: Any, memo: Optional[_Memo] = None) -> str:
    """``json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))``
    without building the intermediate dicts: byte-identical text.

    Scalars follow ``json``'s own rules: ``null``/``true``/``false``,
    ``int.__repr__``, ``float.__repr__`` (``NaN``, ``Infinity``,
    ``-Infinity`` for the non-finite), ``encode_basestring_ascii`` for
    strings.  Everything else takes :func:`_canonical`'s branches, in its
    order, and what it would refuse raises the same :class:`CacheError`.
    ``memo`` is an open :func:`key_scope`'s.
    """
    cls = type(obj)
    if cls is float:
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if cls is int:
        return int.__repr__(obj)
    if cls is str:
        return _json_str(obj)
    layout = _LAYOUTS.get(cls)  # only types past the scalar checks below
    if layout is not None:
        head, fields, frozen = layout
        if frozen and memo is not None:
            hit = memo.get(id(obj))
            if hit is not None:
                return hit[1]
        if fields is None:
            text = head + ",".join([_encode(x, memo) for x in obj.levels]) + "]}"
        else:
            text = (
                head
                + ",".join([k + _encode(getattr(obj, name), memo) for k, name in fields])
                + "}}"
            )
        if frozen and memo is not None:
            memo[id(obj)] = (obj, text)
        return text
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = sorted(f.name for f in dataclasses.fields(obj))
        _LAYOUTS[cls] = (
            "{" + _json_str(cls.__name__) + ":{",
            tuple((_json_str(name) + ":", name) for name in names),
            cls.__dataclass_params__.frozen,  # type: ignore[attr-defined]
        )
        return _encode(obj, memo)
    if isinstance(obj, PowerLevelTable):
        _LAYOUTS[cls] = ('{"PowerLevelTable":[', None, True)
        return _encode(obj, memo)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_encode(x, memo) for x in obj]) + "]"
    if isinstance(obj, dict):
        items = {str(k): v for k, v in sorted(obj.items())}
        body = ",".join([_json_str(k) + ":" + _encode(items[k], memo) for k in sorted(items)])
        return "{" + body + "}"
    raise _unknown(obj)


def key_texts(
    config: ERapidConfig,
    workload: WorkloadSpec,
    plan: MeasurementPlan,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, str]:
    """:func:`canonical_payload` with each top-level value as its JSON
    text.  A caller may add fields of its own (Figure 3's probed runs do)
    before :func:`key_digest` joins them.  Inside a :func:`key_scope`,
    frozen objects are encoded once for the whole scope."""
    from repro.sim.kernel import KERNEL_VERSION

    entry = ENGINES.get(engine)
    if entry is None or entry.key_fields is None:
        raise CacheError(f"unknown engine keyspace {engine!r}")
    memo = _SCOPE.get()
    texts = {
        "cache_format": _encode(CACHE_FORMAT),
        "kernel_version": _encode(KERNEL_VERSION),
        "config": _encode(config, memo),
        "workload": _encode(workload, memo),
        "plan": _encode(plan, memo),
    }
    for name, value in entry.key_fields().items():
        texts[name] = _encode(value)
    return texts


def _key_text(texts: Dict[str, str]) -> str:
    """The JSON object whose values encode to ``texts``, keys sorted."""
    body = ",".join([_json_str(k) + ":" + texts[k] for k in sorted(texts)])
    return "{" + body + "}"


def key_digest(
    texts: Dict[str, str], extra: Optional[Dict[str, Any]] = None
) -> str:
    """SHA-256 of the JSON object that ``texts`` (plus ``extra``'s fields,
    encoded here) spell: the digest of ``json.dumps(payload,
    sort_keys=True, separators=(",", ":"))`` for that payload."""
    if extra:
        texts = {**texts, **{k: _encode(v) for k, v in extra.items()}}
    return hashlib.sha256(_key_text(texts).encode("utf-8")).hexdigest()


def run_cache_key(
    config: ERapidConfig,
    workload: WorkloadSpec,
    plan: MeasurementPlan,
    engine: str = DEFAULT_ENGINE,
) -> str:
    """SHA-256 content address of one run: the digest of
    :func:`canonical_payload`'s JSON text (``sort_keys``, compact
    separators), emitted by :func:`key_texts` without building the
    payload."""
    return key_digest(key_texts(config, workload, plan, engine=engine))


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
#: The store's counter log: one JSON line of session deltas per flush.
#: Neither it nor the legacy ``_stats.json`` sidecar of totals (read,
#: never written) is a valid entry name (keys are 64 hex chars), so entry
#: iteration skips both structurally.
_LOG_NAME = "_stats.log"
_STATS_NAME = "_stats.json"

#: A flush that leaves the log longer than this folds it into one record.
_COMPACT_BYTES = 16 * 1024

_COUNTERS = ("hits", "misses", "puts", "batched_gets", "batched_puts")


#: Sub-directory holding ``reproduce``'s scalar stages (Figure 3 and the
#: ablations) as a store of its own — see :meth:`RunCache.stages`.
_STAGES_DIR = "stages"


def _atomic_write(
    root: Path,
    files: Sequence[Tuple[str, str]],
    fsync: bool = True,
    published: Optional[List[str]] = None,
) -> None:
    """Write ``(file name, text)`` pairs into ``root``, each whole or not
    at all.

    Two phases: every text is **staged** in a uniquely named temp file in
    ``root`` (``mkstemp`` — unique even across threads sharing a PID)
    and, unless ``fsync`` is off, synced to disk; only then is each temp
    ``os.replace``d into place, in order, and its name appended to
    ``published``.  A failure while staging publishes nothing; a failure
    while publishing leaves a prefix of complete files.  Either way no
    temp file survives and the exception propagates.
    """
    root.mkdir(parents=True, exist_ok=True)
    staged: List[Tuple[str, str]] = []
    try:
        for name, text in files:
            fd, tmp_name = tempfile.mkstemp(
                dir=root, prefix=f".{name[:20]}-", suffix=".tmp"
            )
            staged.append((tmp_name, name))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                if fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
        staged.reverse()
        while staged:
            tmp_name, name = staged[-1]
            os.replace(tmp_name, root / name)
            staged.pop()  # renamed: nothing left to clean up for it
            if published is not None:
                published.append(name)
    except BaseException:
        for tmp_name, _ in staged:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        raise


def _read_fd(fd: int) -> bytes:
    """Everything from ``fd``'s offset to EOF."""
    chunks = [os.read(fd, 1 << 16)]
    while chunks[-1]:
        chunks.append(os.read(fd, 1 << 16))
    return b"".join(chunks)


def append_json_line(path: Path, record: Dict[str, Any]) -> int:
    """Append ``record`` to ``path`` as one JSON line: one ``os.write`` on
    an ``O_APPEND`` descriptor under a shared ``flock``, so concurrent
    appenders interleave whole lines and a crash tears at most the last.
    A torn last line (the file does not end in a newline) is closed off
    first, so it cannot swallow this record.  A file replaced (compacted)
    while the append waited for the lock is reopened.  Returns the file's
    size after the append."""
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    flags = os.O_RDWR | os.O_CREAT | os.O_APPEND
    while True:
        try:
            fd = os.open(path, flags, 0o644)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, flags, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            st = os.fstat(fd)
            if st.st_nlink:
                if st.st_size and os.pread(fd, 1, st.st_size - 1) != b"\n":
                    data = b"\n" + data
                os.write(fd, data)
                return st.st_size + len(data)
        finally:
            os.close(fd)


def read_json_lines(path: Path) -> List[Dict[str, Any]]:
    """Every object :func:`append_json_line` wrote to ``path``, in file
    order; a torn line is skipped and a missing file reads as empty."""
    try:
        lines = path.read_bytes().splitlines()
    except OSError:
        return []
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:  # a torn line: a crash mid-append
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _sum_counters(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    totals = dict.fromkeys(_COUNTERS, 0)
    for record in records:
        for name in _COUNTERS:
            value = record.get(name, 0)
            totals[name] += value if isinstance(value, int) else 0
    return totals


class RunCache:
    """On-disk run store with hit/miss/put counters.

    Counters are per-instance (this process's session) until
    :meth:`flush_counters` appends them to the store's ``_stats.log`` —
    whose sum, plus any legacy ``_stats.json``, is the cumulative view
    ``erapid cache stats`` reports.  A flush never reads the log, and
    concurrent flushers, threads or processes, lose no increment.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.  Created
        lazily on the first :meth:`put_many`.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._session = dict.fromkeys(_COUNTERS, 0)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def key_for(
        self,
        config: ERapidConfig,
        workload: WorkloadSpec,
        plan: MeasurementPlan,
        engine: str = DEFAULT_ENGINE,
    ) -> str:
        return run_cache_key(config, workload, plan, engine=engine)

    def stages(self) -> "RunCache":
        """The store for ``reproduce``'s scalar stages (Figure 3 probed
        runs and ablation points): its own directory and counter log
        under this root, so this store's entries, bytes and hit/miss/put
        accounting stay exactly the sweep's."""
        return RunCache(self.root / _STAGES_DIR)

    @staticmethod
    def _load(path: str, decode: Callable[[Dict[str, Any]], Any]) -> Any:
        """The decoded value of the entry at ``path``, or None: a missing,
        corrupt or truncated entry is a miss, never an error."""
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                data = json.loads(_read_fd(fd))
            finally:
                os.close(fd)
            return decode(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def get_many(
        self,
        keys: Sequence[str],
        decode: Callable[[Dict[str, Any]], Any] = RunResult.from_dict,
    ) -> List[Any]:
        """Look up many keys; one counter update for the whole batch.

        Results are positional (``None`` per miss: a missing, corrupt or
        truncated entry is a miss, never an error).  Counts a hit or miss
        per key under one lock acquisition and bumps ``batched_gets``.
        ``decode`` rebuilds the value from its stored ``to_dict()`` form:
        a :class:`RunResult` by default, Figure 3's probe series for its
        entries.
        """
        prefix = os.path.join(self.root, "")
        out = [self._load(prefix + key + ".json", decode) for key in keys]
        misses = out.count(None)
        self._tally(hits=len(out) - misses, misses=misses, batched_gets=1)
        return out

    def put_many(self, items: Sequence[Tuple[str, Any, str]]) -> int:
        """Store ``(key, result, engine)`` triples; returns the count.

        ``result`` is anything with a ``to_dict()`` whose JSON round trip
        is exact (see :meth:`get_many`'s ``decode``).  The batch goes
        through one two-phase :func:`_atomic_write`, so PR 7's
        crash-safety invariant holds *per entry*: an entry is only ever
        observable as a complete, fsynced file, and concurrent writers of
        one key each publish a complete entry (the last replace wins; all
        carry bit-identical payloads by construction).  A failure
        anywhere during staging publishes nothing; a crash mid-publish
        leaves a prefix of complete entries (each individually valid) and
        no torn ones.  Counters are updated once for the whole batch.
        ``engine`` tags each entry for :meth:`by_engine_stats`; it does
        not affect the key (callers derive engine-aware keys via
        :meth:`key_for`).
        """
        for _, _, engine in items:
            if engine not in CACHED:
                raise CacheError(f"unknown engine keyspace {engine!r}")
        if not items:
            return 0
        files = [
            (
                key + ".json",
                json.dumps(
                    {
                        "cache_format": CACHE_FORMAT,
                        "engine": engine,
                        "result": result.to_dict(),
                    },
                    sort_keys=True,
                ),
            )
            for key, result, engine in items
        ]
        published: List[str] = []
        try:
            _atomic_write(self.root, files, published=published)
        finally:  # count only what was actually published
            self._tally(puts=len(published), batched_puts=1)
        return len(published)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Entry files in the store (counter files and temp files excluded)."""
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(f for f in self.root.glob("*.json") if len(f.stem) == 64))

    def entry_count(self) -> int:
        return sum(1 for _ in self.entries())

    def disk_bytes(self) -> int:
        """Total on-disk size of all entries (counter files excluded)."""
        total = 0
        for f in self.entries():
            try:
                total += f.stat().st_size
            except OSError:  # pragma: no cover - racing unlink
                pass
        return total

    def by_engine_stats(self) -> Dict[str, Dict[str, int]]:
        """Entry count and on-disk bytes per engine keyspace.

        Reads each entry's ``engine`` tag; entries written before tagging
        existed (or whose tag is unreadable) count as ``"fast"`` — exactly
        the keyspace they were written from.  Every cached engine of
        :data:`repro.perf.engines.ENGINES` is always present in the result
        so callers can render a stable table.
        """
        out: Dict[str, Dict[str, int]] = {
            e: {"entries": 0, "bytes": 0} for e in CACHED
        }
        for f in self.entries():
            engine = DEFAULT_ENGINE
            try:
                data = json.loads(f.read_text(encoding="utf-8"))
                tag = data.get("engine")
                if isinstance(tag, str) and tag:
                    engine = tag
                size = f.stat().st_size
            except (OSError, ValueError):  # pragma: no cover - racing unlink
                continue
            bucket = out.setdefault(engine, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return out

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for f in self.entries():
            f.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        """This instance's session counters (not the persistent totals)."""
        with self._lock:
            return dict(self._session)

    def _tally(self, **deltas: int) -> None:
        with self._lock:
            for name, n in deltas.items():
                self._session[name] += n

    def _take_session(self) -> Dict[str, int]:
        """The session counters, zeroed in the same step."""
        with self._lock:
            session, self._session = self._session, dict.fromkeys(_COUNTERS, 0)
        return session

    # ------------------------------------------------------------------
    # Persistent counters
    # ------------------------------------------------------------------
    def persistent_stats(self) -> Dict[str, int]:
        """Cumulative counters: the counter log's records summed, plus a
        legacy ``_stats.json`` of totals if one is left."""
        try:
            legacy = json.loads((self.root / _STATS_NAME).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            legacy = {}
        records = read_json_lines(self.root / _LOG_NAME)
        return _sum_counters([legacy if isinstance(legacy, dict) else {}, *records])

    def flush_counters(self) -> None:
        """Append the session counters (zeroed in the same locked step, so
        no flush double-counts) to the log as one record of deltas.  An
        empty session writes nothing; a log past :data:`_COMPACT_BYTES`
        is compacted."""
        deltas = {name: n for name, n in self._take_session().items() if n}
        if deltas and append_json_line(self.root / _LOG_NAME, deltas) > _COMPACT_BYTES:
            self._compact()

    def _compact(self) -> None:
        """Fold the counter log into one record of its totals, under an
        exclusive ``flock`` so no append lands between the read and the
        atomic replace."""
        log = self.root / _LOG_NAME
        try:
            fd = os.open(log, os.O_RDONLY)
        except OSError:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            st = os.fstat(fd)
            if st.st_nlink and st.st_size > _COMPACT_BYTES:  # else done already
                totals = json.dumps(_sum_counters(read_json_lines(log)), sort_keys=True)
                _atomic_write(self.root, [(_LOG_NAME, totals + "\n")])
        finally:
            os.close(fd)

    def reset_counters(self) -> None:
        """Zero the session counters and delete the persistent ones."""
        self._take_session()
        for name in (_LOG_NAME, _STATS_NAME):
            (self.root / name).unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunCache {self.root} {self._session}>"
