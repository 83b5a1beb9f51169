"""The batch engine's log-and-reduce helpers, in isolation.

:mod:`repro.core.reduce` replaces per-cycle bookkeeping with logs reduced
in bulk; each reducer is checked here against the naive per-cycle (or
per-record) computation it stands in for, on random logs cut at random
flush points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduce import (
    ACCT_FIELDS,
    AccountingLog,
    ReceiveLog,
    replay_accounting,
    tally_completions,
)

HORIZON = 24  # arrival cycles are drawn below this (dense: ports back up)
NODES = 2


class NaivePorts:
    """Per-cycle receive ports as the batch loop used to simulate them:
    unbounded queue, one packet in service for ``ser`` cycles, and each
    cycle processes completions, then arrivals, then starts."""

    def __init__(self, runs, ser, wu, me, pre_wu_inj, lab_inj):
        ports = runs * NODES
        self.ser, self.wu, self.me = ser, wu, me
        self.pre, self.lab_inj = pre_wu_inj, lab_inj
        self.qlen = [0] * ports
        self.busy_until = [None] * ports
        self.total = np.zeros(runs, dtype=np.int64)
        self.measure = np.zeros(runs, dtype=np.int64)
        self.lab_del = np.zeros(runs, dtype=np.int64)
        self.sum_t = np.zeros(runs)

    def step(self, t, arriving_ports):
        for port, until in enumerate(self.busy_until):
            if until == t:
                self.busy_until[port] = None
                run = port // NODES
                self.total[run] += 1
                if self.wu <= t < self.me:
                    self.measure[run] += 1
                lab = min(max(self.total[run] - self.pre[run], 0), self.lab_inj[run])
                self.sum_t[run] += (lab - self.lab_del[run]) * t
                self.lab_del[run] = lab
        for port in arriving_ports:
            self.qlen[port] += 1
        for port, until in enumerate(self.busy_until):
            if until is None and self.qlen[port]:
                self.qlen[port] -= 1
                self.busy_until[port] = t + self.ser


#: Bursts of same-cycle arrivals at one port (so ports back up): (arrival
#: cycle, port, burst size, how many cycles ahead it is logged, logged as
#: single keys rather than in an array).
bursts_st = st.lists(
    st.tuples(
        st.integers(0, HORIZON - 1),
        st.integers(0, 3 * NODES - 1),
        st.integers(1, 4),
        st.integers(0, 9),
        st.booleans(),
    ),
    max_size=30,
)


@settings(max_examples=400, deadline=None)
@given(
    bursts=bursts_st,
    ser=st.integers(1, 6),
    flushes=st.sets(st.integers(0, HORIZON + 40), max_size=8),
    compact_at=st.integers(0, 8),
    keep=st.lists(st.booleans(), min_size=3, max_size=3),
    window=st.tuples(st.integers(0, 20), st.integers(0, 40)),
    pre_wu_inj=st.lists(st.integers(0, 6), min_size=3, max_size=3),
    lab_inj=st.lists(st.integers(0, 12), min_size=3, max_size=3),
)
def test_receive_reduction_matches_per_cycle_ports(
    bursts, ser, flushes, compact_at, keep, window, pre_wu_inj, lab_inj
):
    runs = 3
    arrivals = [
        (a, port, lead, single)
        for a, port, size, lead, single in bursts
        for _ in range(size)
    ]
    wu, me = window[0], window[0] + window[1]
    pre = np.array(pre_wu_inj, dtype=np.int64)
    lab = np.array(lab_inj, dtype=np.int64)
    naive = NaivePorts(runs, ser, wu, me, pre, lab)
    by_cycle = {}
    for a, port, _, _ in arrivals:
        by_cycle.setdefault(a, []).append(port)

    log = ReceiveLog(runs, NODES, ser, HORIZON)
    live = np.arange(runs)  # original run of each live row
    total = np.zeros(runs, dtype=np.int64)
    measure = np.zeros(runs, dtype=np.int64)
    lab_del = np.zeros(runs, dtype=np.int64)
    sum_t = np.zeros(runs)
    landed_total = 0
    prev, now = -1, -1
    for i, now in enumerate(sorted(flushes)):
        # What the engine would have logged during cycles (prev, now]:
        # arrivals for live runs, possibly some cycles ahead of landing.
        vector = []
        for a, port, lead, single in arrivals:
            row = np.flatnonzero(live == port // NODES)
            if prev < max(a - lead, 0) <= now and len(row):
                key = (int(row[0]) * NODES + port % NODES) * HORIZON + a
                if single:
                    log.scalar.append(key)
                else:
                    vector.append(key)
        if vector:
            cut = len(vector) // 2
            log.vector.append(np.array(vector[:cut], dtype=np.int64))
            log.vector.append(np.array(vector[cut:], dtype=np.int64))
        landed, run, c = log.flush(now)
        landed_total += landed
        assert (c <= now).all() and (c > prev).all()
        tally_completions(
            run, c, wu, me, pre[live], lab[live], total, measure, lab_del, sum_t
        )
        for t in range(prev + 1, now + 1):
            naive.step(t, by_cycle.get(t, ()))
        assert total.tolist() == naive.total[live].tolist()
        assert measure.tolist() == naive.measure[live].tolist()
        assert lab_del.tolist() == naive.lab_del[live].tolist()
        assert sum_t.tolist() == naive.sum_t[live].tolist()
        if i == compact_at:
            keep_live = np.array(keep)[live]
            log.compact(keep_live)
            live = live[keep_live]
            total, measure = total[keep_live], measure[keep_live]
            lab_del, sum_t = lab_del[keep_live], sum_t[keep_live]
        prev = now
    if compact_at >= len(flushes):
        # Nothing was compacted away: every arrival that has landed by
        # the last flush was consumed exactly once.
        assert landed_total == sum(a <= now for a, _, _, _ in arrivals)


def test_receive_log_carries_backlog_across_flushes():
    """One port, three same-cycle arrivals, ser=4: completions at 6, 10,
    14 — the backlog outlives two flushes, a later arrival on an idle
    port of the same run finishes in between, and a later arrival on the
    backed-up port queues behind the carried backlog."""
    log = ReceiveLog(1, 2, 4, 64)
    log.vector.append(np.array([0 * 64 + 2] * 3, dtype=np.int64))
    log.scalar.append(1 * 64 + 7)  # port 1, lands at 7 -> completes at 11
    log.scalar.append(0 * 64 + 9)  # port 0, lands at 9 -> behind 14 -> 18
    landed, run, c = log.flush(6)
    assert (landed, c.tolist()) == (3, [6])
    landed, run, c = log.flush(12)
    assert (landed, c.tolist()) == (2, [10, 11])
    landed, run, c = log.flush(20)
    assert (landed, run.tolist(), c.tolist()) == (0, [0, 0], [14, 18])
    assert log.c_last.tolist() == [18, 11]


record_st = st.tuples(
    st.integers(0, 39),   # t
    st.integers(0, 5),    # channel (2 runs x 3 channels)
    st.floats(0, 8, allow_nan=False),    # start - t
    st.floats(0.1, 30, allow_nan=False),  # end - start
    st.integers(0, 2),    # level
)


@settings(max_examples=150, deadline=None)
@given(
    groups=st.lists(
        st.tuples(st.lists(record_st, min_size=1, max_size=6), st.booleans()),
        max_size=12,
    ),
    cuts=st.sets(st.integers(0, 12), max_size=3),
)
def test_accounting_replay_matches_inline_accumulation(groups, cuts):
    """Replaying the dispatch-ordered log gives the accumulators the same
    bits as updating them at dispatch time, whether a dispatch logged its
    records one by one (scalar path) or as one block (vector path), and
    wherever the log is cut into flushes.  The float64 block log replays
    bit for bit like the flat list of boxed values it replaced."""
    CH, Wc, wu, me = 3, 16, 5, 30
    power = np.array([0.3, 1.7, 4.9])
    inline = [np.zeros(2), np.zeros(6), np.zeros(6)]
    replayed = [np.zeros(2), np.zeros(6), np.zeros(6)]
    from_flat = [np.zeros(2), np.zeros(6), np.zeros(6)]
    log = AccountingLog()
    flat = []

    def flush():
        replay_accounting(log.take(), CH, Wc, wu, me, power, *replayed)
        records = np.array(flat, dtype=np.float64).reshape(-1, ACCT_FIELDS)
        replay_accounting(records, CH, Wc, wu, me, power, *from_flat)
        flat.clear()

    for g, (records, as_block) in enumerate(groups):
        records = [(t, rc, t + ds, t + ds + de, lvl) for t, rc, ds, de, lvl in records]
        for t, rc, start, end, lvl in records:
            wend = (t // Wc + 1) * Wc
            inline[0][rc // CH] += float(power[lvl]) * max(
                min(end, me) - max(start, wu), 0.0
            )
            inline[1][rc] += max(min(end, wend) - start, 0.0)
            inline[2][rc] += max(end - max(start, wend), 0.0)
        if as_block:
            log.append(np.array(records, dtype=np.float64))
        else:
            for record in records:
                log.scalar.extend(record)
        for record in records:
            flat.extend(record)
        if g in cuts:
            flush()
    flush()
    assert len(log.take()) == 0
    for got, flat_got, want in zip(replayed, from_flat, inline):
        assert got.tobytes() == want.tobytes()
        assert flat_got.tobytes() == want.tobytes()
