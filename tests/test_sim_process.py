"""Unit tests for generator-based processes and stores."""

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim import MonitoredStore, Simulator, Store


def test_process_holds_via_timeout():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield sim.timeout(10)
        times.append(sim.now)
        yield sim.timeout(5)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0.0, 10.0, 15.0]


def test_process_receives_timeout_value():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1, value="hello")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_process_join_returns_value():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(3)
        return 42

    def parent():
        result = yield sim.process(child())
        got.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert got == [(3.0, 42)]


def test_yield_non_waitable_raises():
    sim = Simulator()

    def bad():
        yield 17

    sim.process(bad())
    with pytest.raises(ProcessError):
        sim.run()


def test_process_needs_generator():
    sim = Simulator()
    with pytest.raises(ProcessError):
        sim.process(lambda: None)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(8)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(8.0, "x")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a-in", sim.now))
        yield store.put("b")
        log.append(("b-in", sim.now))

    def consumer():
        yield sim.timeout(5)
        item = yield store.get()
        log.append(("got-" + item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("a-in", 0.0) in log
    assert ("b-in", 5.0) in log  # admitted only after the consumer drained


def test_store_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put(1) is True
    assert store.try_put(2) is False
    ok, item = store.try_get()
    assert ok and item == 1
    ok, item = store.try_get()
    assert not ok and item is None


def test_store_bad_capacity():
    with pytest.raises(SimulationError):
        Store(Simulator(), capacity=0)


# ----------------------------------------------------------------------
# MonitoredStore
# ----------------------------------------------------------------------

def test_monitored_store_occupancy_average():
    sim = Simulator()
    store = MonitoredStore(sim, capacity=4)

    def scenario():
        yield store.put("a")       # occ 1 from t=0
        yield sim.timeout(10)
        yield store.put("b")       # occ 2 from t=10
        yield sim.timeout(10)
        yield store.get()          # occ 1 from t=20
        yield sim.timeout(10)      # until t=30

    sim.process(scenario())
    sim.run(until=30)
    # area = 1*10 + 2*10 + 1*10 = 40 over 30 -> 4/3
    assert store.occupancy.window(30.0) == pytest.approx(40.0 / 30.0)
    assert store.buffer_util(30.0) == pytest.approx(40.0 / 30.0 / 4)


def test_monitored_store_counts_and_dwell():
    sim = Simulator()
    store = MonitoredStore(sim, capacity=4)

    def scenario():
        yield store.put("a")
        yield sim.timeout(6)
        yield store.get()

    sim.process(scenario())
    sim.run()
    assert store.arrivals == 1
    assert store.departures == 1
    assert store.dwell.mean == pytest.approx(6.0)


def test_monitored_store_direct_handoff_counts():
    sim = Simulator()
    store = MonitoredStore(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    def producer():
        yield sim.timeout(3)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["x"]
    assert store.arrivals == 1 and store.departures == 1
    assert store.dwell.mean == 0.0


def test_monitored_store_window_reset():
    sim = Simulator()
    store = MonitoredStore(sim, capacity=2)

    def scenario():
        yield store.put("a")
        yield sim.timeout(10)
        store.reset_window()
        yield sim.timeout(10)

    sim.process(scenario())
    sim.run(until=20)
    # After reset at t=10, occupancy stays 1 for the whole window.
    assert store.buffer_util(20.0) == pytest.approx(0.5)
