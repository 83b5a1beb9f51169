"""Log-and-reduce bookkeeping for the batch engine's cycle loop.

:class:`~repro.core.batch.BatchEngine` keeps in its per-cycle path only
the state that decides *future events* (send ports, pair queues, channel
state).  Everything that merely *observes* the run is appended to a log
and reduced in bulk on the engine's ``chunk`` grid, bit-identically to
the inline bookkeeping it replaces:

* **The receive side.**  Receive ports have no back-pressure (their
  queues are unbounded), so nothing upstream ever waits on them: a port
  is a FIFO server with a fixed serialization time, and its completions
  follow from its arrival cycles alone.  :class:`ReceiveLog` collects
  ``(arrival cycle, port)`` pairs, computes every port's completions
  ``c_j = max(a_j, c_{j-1}) + ser`` with one segmented running maximum
  (all integer arithmetic), and hands the completions that are due to
  :func:`tally_completions`, which updates the per-run delivery counters
  exactly as a per-cycle loop would have.
* **Busy-energy and link-utilisation accounting.**  A dispatch's
  contribution to ``busy_E``/``win_busy``/``win_carry`` depends only on
  ``(t, channel, start, end, level)``.  :class:`AccountingLog` keeps
  those records in dispatch order as float64 blocks (40 bytes per
  dispatch), and :func:`replay_accounting` applies them with one
  unbuffered ``np.add.at`` per accumulator, i.e. the identical sequence
  of IEEE double additions per accumulator slot as inline updates.

Nothing here knows the engine's array layout beyond "ports of one run are
contiguous"; like :mod:`repro.core.skip` the module imports nothing from
:mod:`repro` (``MODULE_LAYERS['repro.core.reduce']``) and sits in the
vectorized-engine lint scope.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "ACCT_FIELDS",
    "AccountingLog",
    "ReceiveLog",
    "replay_accounting",
    "tally_completions",
]

#: Values per accounting record: ``(t, channel, start, end, level)``.
ACCT_FIELDS = 5

_EMPTY = np.zeros(0, dtype=np.int64)
_NO_RECORDS = np.zeros((0, ACCT_FIELDS))


class ReceiveLog:
    """Arrival log and FIFO reduction of a slab's receive ports.

    Arrivals are logged as packed keys ``port * horizon + cycle`` (every
    arrival cycle is below ``horizon``), so one integer sort orders them
    by port, then time.  The engine appends keys to :attr:`scalar`, and
    :meth:`seal` packs them into int64 blocks; arrival order within the
    log is irrelevant (equal keys are interchangeable packets).

    :meth:`flush` consumes every arrival that has landed by ``now`` and
    returns the completions due by ``now``.  Two things carry over to the
    next flush, because a backlogged port finishes packets long after
    they arrive while an idle port may finish a *later* arrival earlier:
    arrivals not landed yet, and completions already determined but not
    yet due.  ``c_last`` holds each port's last computed completion.
    """

    __slots__ = (
        "nodes", "ser", "horizon", "c_last", "scalar", "_blocks",
        "_arrivals", "_pend_run", "_pend_c",
    )

    def __init__(self, runs: int, nodes: int, ser: int, horizon: int) -> None:
        self.nodes = nodes
        self.ser = ser
        self.horizon = horizon
        self.c_last = np.zeros(runs * nodes, dtype=np.int64)
        self.scalar: List[int] = []
        self._blocks: List[np.ndarray] = []
        self._arrivals = _EMPTY
        self._pend_run = _EMPTY
        self._pend_c = _EMPTY

    def flush(self, now: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """Reduce the log up to cycle ``now`` (inclusive).

        Returns ``(landed, run, c)``: the number of logged arrivals with
        cycle ``<= now`` consumed by this call, and the completions with
        ``c <= now`` not returned before, sorted by run, then time.
        """
        self.seal()
        parts = [self._arrivals, *self._blocks]
        self._blocks.clear()
        keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
        due = keys % self.horizon <= now
        self._arrivals = keys[~due]
        keys = keys[due]
        keys.sort()
        landed = len(keys)
        run, c = self._pend_run, self._pend_c
        if landed:
            port = keys // self.horizon
            c_new = self._fifo(port, keys % self.horizon)
            run = np.concatenate((run, port // self.nodes))
            c = np.concatenate((c, c_new))
        done = c <= now
        self._pend_run, self._pend_c = run[~done], c[~done]
        run, c = run[done], c[done]
        order = np.lexsort((c, run))
        return landed, run[order], c[order]

    def seal(self) -> None:
        """Move the keys logged one at a time into an int64 block (8
        bytes a key instead of a Python int's 36)."""
        if self.scalar:
            self._blocks.append(np.array(self.scalar, dtype=np.int64))
            self.scalar.clear()

    def _fifo(self, port: np.ndarray, arrive: np.ndarray) -> np.ndarray:
        """Completion cycles of arrivals sorted by (port, cycle).

        With ``j`` the rank of an arrival within its port's segment,
        ``c_j - (j+1)*ser = max(c_last, max_{i<=j}(a_i - i*ser))``: a
        running maximum per segment.  Shifting segment ``s`` by ``s *
        span`` (``span`` above the value range) turns it into one global
        ``maximum.accumulate``.  Every quantity is an exact int64.
        """
        n = len(port)
        idx = np.arange(n, dtype=np.int64)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(port[1:], port[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        rank = idx - np.maximum.accumulate(head * idx)
        w = arrive - rank * self.ser
        w[heads] = np.maximum(w[heads], self.c_last[port[heads]])
        shift = (np.cumsum(head) - 1) * (int(w.max()) - int(w.min()) + 1)
        c = np.maximum.accumulate(w + shift)
        c -= shift
        c += (rank + 1) * self.ser
        tails = np.append(heads[1:] - 1, n - 1)
        self.c_last[port[tails]] = c[tails]
        return c

    def compact(self, keep_run: np.ndarray) -> None:
        """Drop removed runs' carried state and renumber the survivors.

        ``keep_run`` is the boolean keep mask over the current runs; the
        renumbering preserves relative order (as the engine's own
        compaction does).  Call right after a :meth:`flush` — unflushed
        keys are not remapped.
        """
        new_of_old = np.cumsum(keep_run, dtype=np.int64) - 1
        N, H = self.nodes, self.horizon
        self.c_last = self.c_last[np.repeat(keep_run, N)]
        port = self._arrivals // H
        keep = keep_run[port // N]
        port = port[keep]
        self._arrivals = (
            (new_of_old[port // N] * N + port % N) * H
            + self._arrivals[keep] % H
        )
        keep = keep_run[self._pend_run]
        self._pend_run = new_of_old[self._pend_run[keep]]
        self._pend_c = self._pend_c[keep]


def tally_completions(
    run: np.ndarray,
    c: np.ndarray,
    wu: int,
    me: int,
    pre_wu_inj: np.ndarray,
    lab_inj: np.ndarray,
    delivered_total: np.ndarray,
    delivered_measure: np.ndarray,
    lab_del: np.ndarray,
    sum_del_t: np.ndarray,
) -> None:
    """Fold time-ordered completions into the per-run delivery counters.

    ``run``/``c`` are completions sorted by run, then cycle, all later
    than every completion tallied before.  The k-th completion of a run
    (1-based, over the whole run) is *labeled* iff ``pre_wu_inj < k <=
    pre_wu_inj + lab_inj`` — the FIFO proxy pairing the j-th labeled
    delivery with the j-th labeled injection.  ``sum_del_t`` receives the
    labeled completion cycles; every partial sum is an integer below
    2**53, so the float accumulation is exact and order-free.
    """
    if not len(run):
        return
    R = len(delivered_total)
    cnt = np.bincount(run, minlength=R)
    first = np.cumsum(cnt) - cnt
    k = np.arange(1, len(run) + 1, dtype=np.int64)
    k += (delivered_total - first)[run]
    pre = pre_wu_inj[run]
    lab = (k > pre) & (k <= pre + lab_inj[run])
    delivered_total += cnt
    delivered_measure += np.bincount(run[(c >= wu) & (c < me)], minlength=R)
    lab_run = run[lab]
    lab_del += np.bincount(lab_run, minlength=R)
    sum_del_t += np.bincount(lab_run, weights=c[lab], minlength=R)


class AccountingLog:
    """Dispatch-ordered accounting records, held as float64 blocks.

    A dispatch extends :attr:`scalar` with one flat record at a time (no
    array per packet); :meth:`seal` packs the buffered records into a
    block in order (the engine seals every few hundred records), so the
    log keeps dispatch order while holding 40 bytes per record.
    :meth:`take` returns everything logged so far as one array and
    empties the log.
    """

    __slots__ = ("scalar", "_blocks")

    def __init__(self) -> None:
        self.scalar: List[float] = []
        self._blocks: List[np.ndarray] = []

    def seal(self) -> None:
        """Move the records logged one at a time into a float64 block,
        in order (40 bytes a record instead of a list's ~150)."""
        if self.scalar:
            self._blocks.append(
                np.array(self.scalar, dtype=np.float64).reshape(-1, ACCT_FIELDS)
            )
            self.scalar.clear()

    def take(self) -> np.ndarray:
        """Every record logged since the last take, in dispatch order."""
        self.seal()
        blocks = self._blocks
        if not blocks:
            return _NO_RECORDS
        log = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        blocks.clear()
        return log


def replay_accounting(
    log: np.ndarray,
    channels_per_run: int,
    window_cycles: int,
    wu: int,
    me: int,
    power_mw: np.ndarray,
    busy_E: np.ndarray,
    win_busy: np.ndarray,
    win_carry: np.ndarray,
) -> None:
    """Apply a dispatch-ordered accounting log to the accumulators.

    ``log`` is a float64 array of :data:`ACCT_FIELDS`-wide rows ``(t,
    channel, start, end, level)`` in dispatch order (all values exact in
    a double), as :meth:`AccountingLog.take` returns it.  Each
    accumulator slot receives the same addends in the same order as
    inline ``+=`` at dispatch time would have given it —
    ``np.add.at`` is unbuffered and walks its index array front to back —
    so the float results are bit-identical.  Replay before anything reads
    or resets an accumulator (every Lock-Step window boundary reads
    ``win_busy`` and rolls ``win_carry`` into it).
    """
    if not len(log):
        return
    t, start, end = log[:, 0], log[:, 2], log[:, 3]
    rc = log[:, 1].astype(np.int64)
    # Busy energy over the measurement window.  Temporaries are reused
    # in place; every elementwise operation is the one inline updates
    # would do, so the rounding is too.
    ov = np.minimum(end, me)
    ov -= np.maximum(start, wu)
    np.maximum(ov, 0.0, out=ov)
    ov *= power_mw[log[:, 4].astype(np.int64)]
    np.add.at(busy_E, rc // channels_per_run, ov)
    # Link_util busy time, split at the dispatch's next window boundary.
    wend = t // window_cycles
    wend += 1
    wend *= window_cycles
    wb = np.minimum(end, wend, out=ov)
    wb -= start
    np.maximum(wb, 0.0, out=wb)
    np.add.at(win_busy, rc, wb)
    wc = np.maximum(start, wend, out=wend)
    np.subtract(end, wc, out=wc)
    np.maximum(wc, 0.0, out=wc)
    np.add.at(win_carry, rc, wc)
