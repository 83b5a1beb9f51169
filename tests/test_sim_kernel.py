"""Unit tests for the discrete-event kernel (events, clock, scheduling)."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import DueQueue, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run_orders_by_time():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_fifo_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(3.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_priority_breaks_time_ties():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "low", priority=5)
    sim.schedule(1.0, fired.append, "high", priority=-5)
    sim.run()
    assert fired == ["high", "low"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.schedule(50.0, lambda: None)
    sim.run(until=20.0)
    assert sim.now == 20.0
    # Second run resumes and executes the remaining event.
    sim.run()
    assert sim.now == 50.0


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.run(until=5.0)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize(
    "call",
    [
        lambda sim, fn: sim.schedule(float("nan"), fn),
        lambda sim, fn: sim.schedule_fast(float("nan"), fn),
        lambda sim, fn: sim.schedule_late(float("nan"), fn),
        lambda sim, fn: sim.schedule_at(float("nan"), fn),
    ],
    ids=["schedule", "schedule_fast", "schedule_late", "schedule_at"],
)
def test_nan_time_is_refused(call):
    """A NaN time compares false both ways, so ``delay < 0`` would let it
    through: queued, it would run ahead of t = 1 with ``now`` set to NaN."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "t=1")
    with pytest.raises(SchedulingError):
        call(sim, lambda: fired.append(sim.now))
    sim.run()
    assert fired == ["t=1"] and sim.now == 1.0


def test_run_until_nan_is_refused():
    """``run(until=nan)`` would ignore its bound and drain the heap."""
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "x")
    with pytest.raises(SchedulingError):
        sim.run(until=float("nan"))
    assert fired == [] and sim.now == 0.0 and sim.event_count == 0
    sim.run(until=10.0)
    assert fired == ["x"] and sim.now == 10.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(7.0, fired.append, "x")
    sim.run()
    assert fired == ["x"] and sim.now == 7.0
    with pytest.raises(SchedulingError):
        sim.schedule_at(3.0, fired.append, "y")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(4.0, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.now == 2.0


def test_peek_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_returns_none():
    assert Simulator().peek() is None


def test_event_count_increments():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_waitable_trigger_twice_raises():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(1)
    with pytest.raises(SimulationError):
        ev.trigger(2)


def test_waitable_late_registration_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.trigger("v")
    got = []
    ev.wait(lambda w: got.append(w.value))
    sim.run()
    assert got == ["v"]


def test_negative_timeout_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-3)


# ----------------------------------------------------------------------
# Hot-path machinery: schedule_fast, lazy compaction, on_event hook
# ----------------------------------------------------------------------
def test_schedule_fast_interleaves_fifo_with_schedule():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule_fast(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    sim.schedule_fast(1.0, fired.append, "d")
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_schedule_fast_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule_fast(-0.5, lambda: None)


def test_mass_cancellation_compacts_heap():
    from repro.sim.kernel import COMPACT_MIN_CANCELLED

    sim = Simulator()
    keep = []
    handles = [
        sim.schedule(10.0, keep.append, i)
        for i in range(2 * COMPACT_MIN_CANCELLED)
    ]
    survivors = set(range(0, len(handles), 4))
    for i, h in enumerate(handles):
        if i not in survivors:
            h.cancel()
    # At least one compaction fired: the heap physically shrank (a purely
    # lazy kernel would still hold all 128 entries), and the pending
    # cancelled count was reset below the threshold.
    assert len(sim._heap) < len(handles)
    assert sim._cancelled < COMPACT_MIN_CANCELLED
    sim.run()
    assert keep == sorted(survivors)
    assert sim.event_count == len(survivors)


def test_cancellation_below_threshold_stays_lazy():
    sim = Simulator()
    handles = [sim.schedule(5.0, lambda: None) for _ in range(10)]
    for h in handles[:5]:
        h.cancel()
    # Too few cancels to compact: entries stay, flagged, until popped.
    assert len(sim._heap) == 10
    sim.run()
    assert sim.event_count == 5


def test_double_cancel_counts_once():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    h.cancel()
    assert sim._cancelled == 1


def test_compaction_during_run_keeps_dispatching():
    from repro.sim.kernel import COMPACT_MIN_CANCELLED

    sim = Simulator()
    fired = []
    victims = [
        sim.schedule(50.0, fired.append, "victim")
        for _ in range(2 * COMPACT_MIN_CANCELLED)
    ]

    def massacre():
        for v in victims:
            v.cancel()

    sim.schedule(1.0, massacre)
    sim.schedule(2.0, fired.append, "after")
    sim.run()
    # The in-run compaction must not strand the later event.
    assert fired == ["after"]
    assert sim.now == 50.0 or sim.now == 2.0  # clock stops at last executed


def test_on_event_hook_sees_every_event():
    sim = Simulator()
    seen = []
    sim.on_event = lambda time, fn, args: seen.append((time, args))
    sim.schedule(1.0, lambda: None)
    sim.schedule_fast(2.0, lambda x: None, "payload")
    sim.run()
    assert [t for t, _ in seen] == [1.0, 2.0]
    assert seen[1][1] == ("payload",)
    assert sim.event_count == 2


def test_instrumented_and_fast_paths_agree():
    def build(hooked):
        sim = Simulator()
        fired = []
        if hooked:
            sim.on_event = lambda *a: None
        for tag in range(20):
            sim.schedule(float(tag % 5), fired.append, tag)
        sim.schedule_fast(2.5, fired.append, "mid")
        sim.run()
        return fired, sim.now, sim.event_count

    assert build(True) == build(False)


def storm(sim):
    """64 interleaved self-rescheduling chains, every third hop scheduling
    and cancelling a decoy: the push/pop/dispatch loop plus the
    cancellation/compaction path.  Returns what fired, when."""
    fired = []

    def hop(chain, remaining):
        fired.append((sim.now, chain))
        if remaining <= 0:
            return
        if remaining % 3 == 0:
            sim.schedule(2.0, fired.append, "decoy").cancel()
        sim.schedule(1.0 + (chain % 7) * 0.125, hop, chain, remaining - 1)

    for c in range(64):
        sim.schedule((c % 13) * 0.0625, hop, c, 40)
    sim.run()
    return fired, sim.event_count, sim.now


def test_event_storm_matches_frozen_legacy_kernel():
    """The tuple-keyed kernel fires the same events at the same times, in
    the same order, as the frozen object-heap kernel it replaced."""
    from repro.perf.legacy import LegacySimulator

    current = storm(Simulator())
    assert current == storm(LegacySimulator())
    assert current[1] == 64 * 41
    assert "decoy" not in current[0]


def continuation_storm(sim, seed, budget=2500, drive="run"):
    """Callbacks that schedule zero-delay and timed continuations
    (``schedule_late``) and direct events (``schedule_fast``) from inside
    callbacks, in a seeded random mix: zero-delay continuations queue on
    the kernel's lane while same-instant priority-0 events and earlier
    priority-1 entries sit on the heap.  Both kernels consume the one
    random stream in firing order, so any reordering shows up in what
    fires next.  ``drive`` runs the stream with ``run()``, with an
    ``on_event`` hook, or one ``step()`` at a time with ``peek()``
    checked against every fired time."""
    import random

    rng = random.Random(seed)
    fired = []
    left = [budget]

    def hop(tag):
        fired.append((sim.now, tag))
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            if left[0] <= 0:
                return
            left[0] -= 1
            delay = rng.choice((0.0, 0.0, 0.0, 0.25, 1.0, 2.0))
            schedule = sim.schedule_late if rng.random() < 0.6 else sim.schedule_fast
            schedule(delay, hop, budget - left[0])

    for c in range(6):
        (sim.schedule_late if c % 2 else sim.schedule_fast)(
            (c % 3) * 0.5, hop, -1 - c
        )
    if drive == "run":
        sim.run()
    elif drive == "hook":
        seen = []
        sim.on_event = lambda time, fn, args: seen.append(time)
        sim.run()
        assert seen == [t for t, _ in fired]
    else:
        while True:
            nxt = sim.peek()
            if not sim.step():
                assert nxt is None
                break
            assert fired[-1][0] == nxt == sim.now
    return fired, sim.event_count, sim.now


@pytest.mark.parametrize("drive", ["run", "hook", "step"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_continuation_storm_matches_frozen_legacy_kernel(seed, drive):
    """Zero-delay continuations run in the ``(time, priority, seq)`` order
    of the frozen single-heap kernel, lane pops count as events, and
    ``run()``, the ``on_event`` path and ``step()``/``peek()`` agree."""
    from repro.perf.legacy import LegacySimulator

    current = continuation_storm(Simulator(), seed, drive=drive)
    assert current == continuation_storm(LegacySimulator(), seed)
    assert current[1] == len(current[0]) > 2500


def test_continuation_storm_over_random_seeds():
    from hypothesis import given, settings, strategies as st

    from repro.perf.legacy import LegacySimulator

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        assert continuation_storm(Simulator(), seed, budget=400) == (
            continuation_storm(LegacySimulator(), seed, budget=400)
        )

    check()


def test_lane_waits_for_same_instant_heap_entries():
    """A zero-delay continuation runs after a same-instant priority-0
    event scheduled after it, and after a priority-1 entry due now that
    was scheduled before it; a later-scheduled priority-1 entry due now
    runs after it."""
    sim = Simulator()
    fired = []

    def start():
        sim.schedule_late(0.0, fired.append, "lane")
        sim.schedule_fast(0.0, fired.append, "p0")
        sim.schedule(0.0, fired.append, "p1-later", priority=1)

    sim.schedule_late(1.0, start)
    sim.schedule_late(1.0, fired.append, "p1-earlier")
    sim.schedule_fast(1.0, fired.append, "p0-first")
    sim.run()
    assert fired == ["p0-first", "p0", "p1-earlier", "lane", "p1-later"]
    assert sim.event_count == 6


def test_due_queue_pops_in_due_order_fifo_among_ties():
    """A push due earlier than the last one (a shorter-latency producer)
    is inserted after every entry due by then: pops follow the kernel's
    (time, FIFO) order."""
    q = DueQueue()
    for due, item in [(1.0, "a"), (3.0, "b"), (2.0, "c"), (1.0, "d"), (3.0, "e")]:
        q.push(due, item)
    assert q[0][0] == 1.0
    # The fabric's drain: pop while the front is due.
    popped = []
    while q and q[0][0] <= 3.0:
        popped.append(q.popleft()[1])
    assert popped == ["a", "d", "c", "b", "e"]
    assert not q
