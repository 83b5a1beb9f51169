"""Batch engine tier: coverage routing, slab grouping, fidelity gates.

The vectorized :class:`~repro.core.batch.BatchEngine` is only allowed to
exist because of the contracts pinned here: permutation-pattern injection
is bit-identical to the scalar :class:`~repro.core.engine.FastEngine`,
every other metric stays inside the tolerances declared in
:mod:`repro.analysis.equivalence`, and points the vectorized model does
not cover fall back to the scalar engine with scalar-identical results.
"""

import pytest

from repro.analysis.equivalence import (
    bit_identity_fingerprint,
    compare_runs,
)
from repro.core.batch import (
    BATCH_KERNEL_VERSION,
    BatchEngine,
    coverage_gap,
    slab_key,
)
from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.executor import RunTask, execute_tasks, run_sweep_batched
from repro.traffic.patterns import make_pattern
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=500, measure=1000, drain_limit=2000)


def make_config(policy="P-B", boards=4, nodes=4):
    return ERapidConfig(
        topology=ERapidTopology(boards=boards, nodes_per_board=nodes),
        policy=POLICIES[policy],
    )


def grid_tasks(patterns=("complement", "uniform"), loads=(0.2, 0.6)):
    tasks = []
    for pattern in patterns:
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B"):
            for load in loads:
                tasks.append(
                    RunTask(
                        make_config(policy),
                        WorkloadSpec(pattern=pattern, load=load, seed=1),
                        PLAN,
                    )
                )
    return tasks


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------
def test_coverage_gap_accepts_the_paper_grid():
    for pattern in ("uniform", "complement", "butterfly", "perfect_shuffle"):
        workload = WorkloadSpec(pattern=pattern, load=0.5, seed=1)
        assert coverage_gap(make_config(), workload, PLAN) is None, pattern


def test_coverage_gap_reasons_stay_accurate():
    config = make_config()
    poisson = WorkloadSpec(pattern="complement", load=0.5, process="poisson")
    assert "not vectorized" in coverage_gap(config, poisson, PLAN)

    hotspot = WorkloadSpec(pattern="hotspot", load=0.5)
    assert "neither uniform nor a permutation" in coverage_gap(
        config, hotspot, PLAN
    )

    fractional = MeasurementPlan(warmup=500.5, measure=1000, drain_limit=2000)
    ok = WorkloadSpec(pattern="complement", load=0.5)
    assert "integer cycle grid" in coverage_gap(config, ok, fractional)


def test_coverage_pattern_verdict_is_memoised_per_pattern_and_node_count(
    monkeypatch,
):
    """The pattern verdict is built once per (pattern, node count): the
    reason strings are the ones the pattern itself gives, and the verdict
    follows the node count, not the pattern name alone."""
    import repro.core.batch as batch_mod

    built = []

    def counting_make_pattern(name, n_nodes):
        built.append((name, n_nodes))
        return make_pattern(name, n_nodes)

    batch_mod._pattern_gap.cache_clear()
    monkeypatch.setattr(batch_mod, "make_pattern", counting_make_pattern)
    complement = WorkloadSpec(pattern="complement", load=0.5)
    hotspot = WorkloadSpec(pattern="hotspot", load=0.5)
    twelve, sixteen = make_config(boards=3), make_config(boards=4)
    with pytest.raises(ConfigurationError) as unresolvable:
        make_pattern("complement", 12)
    for _ in range(3):
        assert coverage_gap(twelve, complement, PLAN) == (
            f"pattern 'complement' not resolvable: {unresolvable.value}"
        )
        assert coverage_gap(sixteen, complement, PLAN) is None
        assert coverage_gap(sixteen, hotspot, PLAN) == (
            "pattern 'hotspot' is neither uniform nor a permutation"
        )
    assert built == [("complement", 12), ("complement", 16), ("hotspot", 16)]
    batch_mod._pattern_gap.cache_clear()


def capped_config(cap, policy="P-B"):
    from dataclasses import replace

    capped = replace(
        POLICIES[policy], name=f"{policy}[cap={cap}]", max_grants_per_dest=cap
    )
    return ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4), policy=capped
    )


def test_limited_dbr_policies_are_batch_covered():
    """max_grants_per_dest no longer forces the scalar fallback: the
    vectorized DBR planner takes the cap directly."""
    workload = WorkloadSpec(pattern="complement", load=0.5, seed=1)
    for cap in (0, 1, 2, None):
        assert coverage_gap(capped_config(cap), workload, PLAN) is None, cap


def test_limited_dbr_matches_scalar_engine():
    """The §5 "limited flexibility" ablation axis on the batch engine:
    every grant cap must stay inside the declared tolerances against the
    scalar engine, and capped grant counts must agree exactly (the cap is
    enforced by the same dbr_plan on both paths)."""
    workload = WorkloadSpec(pattern="complement", load=0.6, seed=1)
    tasks = [
        RunTask(capped_config(cap), workload, PLAN) for cap in (0, 1, 2, None)
    ]
    batch = run_sweep_batched(tasks)
    scalar = execute_tasks(tasks)
    for result in batch:
        assert result.extra["engine"] == "batch"
    report = compare_runs(scalar, batch)
    assert report.ok, report.to_dict()["failures"]
    for b, s in zip(batch, scalar):
        assert b.extra["grants"] == s.extra["grants"]
    # A zero cap means DBR can never move a wavelength; tighter caps can
    # never grant more than looser ones on the same workload.
    grants = [r.extra["grants"] for r in batch]
    assert grants[0] == 0
    assert grants[0] <= grants[1] <= grants[2] <= grants[3]


# ----------------------------------------------------------------------
# Slab grouping
# ----------------------------------------------------------------------
def test_slab_key_lets_policy_pattern_load_and_seed_vary():
    base = slab_key(
        make_config("P-B"), WorkloadSpec("complement", 0.2, seed=1), PLAN
    )
    assert base == slab_key(
        make_config("NP-NB"), WorkloadSpec("uniform", 0.8, seed=7), PLAN
    )


def test_slab_key_splits_on_grid_shaping_inputs():
    base = slab_key(make_config(), WorkloadSpec("complement", 0.2), PLAN)
    other_plan = MeasurementPlan(warmup=500, measure=2000, drain_limit=4000)
    assert base != slab_key(
        make_config(), WorkloadSpec("complement", 0.2), other_plan
    )
    assert base != slab_key(
        make_config(boards=8, nodes=8), WorkloadSpec("complement", 0.2), PLAN
    )


# ----------------------------------------------------------------------
# Fidelity vs the scalar engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_grid():
    tasks = grid_tasks()
    batch = run_sweep_batched(tasks)
    scalar = execute_tasks(tasks)
    return tasks, batch, scalar


def test_batch_results_within_declared_tolerances(small_grid):
    _, batch, scalar = small_grid
    report = compare_runs(scalar, batch)
    assert report.ok, report.to_dict()["failures"]
    assert report.total == len(batch)


def test_permutation_injection_is_bit_identical(small_grid):
    tasks, batch, scalar = small_grid
    perm = [
        i for i, t in enumerate(tasks) if t.workload.pattern != "uniform"
    ]
    assert perm
    for i in perm:
        assert batch[i].offered == scalar[i].offered
        assert batch[i].labeled_injected == scalar[i].labeled_injected
    assert bit_identity_fingerprint(
        [batch[i] for i in perm]
    ) == bit_identity_fingerprint([scalar[i] for i in perm])


def test_batch_results_are_tagged(small_grid):
    _, batch, _ = small_grid
    for result in batch:
        assert result.extra["engine"] == "batch"
        assert result.extra["events"] == 0


def test_batch_run_is_deterministic():
    tasks = grid_tasks(patterns=("complement",), loads=(0.4,))
    first = BatchEngine([(t.config, t.workload, t.plan) for t in tasks]).run()
    second = BatchEngine([(t.config, t.workload, t.plan) for t in tasks]).run()
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


# ----------------------------------------------------------------------
# Struct-of-arrays result transport
# ----------------------------------------------------------------------
def test_payload_round_trip_is_bit_identical_to_run():
    """run() is defined as decode_payload(run_payload()), so the compact
    transport a pool worker ships must reconstruct the exact RunResults
    in-process execution produces."""
    import pickle

    from repro.core.batch import BatchResultPayload, decode_payload

    tasks = grid_tasks()
    runs = [(t.config, t.workload, t.plan) for t in tasks]
    direct = BatchEngine(runs).run()
    payload = BatchEngine(runs).run_payload()
    assert isinstance(payload, BatchResultPayload)
    assert len(payload) == len(tasks)
    assert payload.nbytes > 0

    # Through a pickle round trip, as the process pool ships it.
    wire = pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    decoded = decode_payload(wire, runs)
    assert [r.to_dict() for r in decoded] == [r.to_dict() for r in direct]


def test_decode_payload_rejects_length_mismatch():
    from repro.errors import ConfigurationError

    from repro.core.batch import decode_payload

    tasks = grid_tasks(patterns=("complement",), loads=(0.4,))
    runs = [(t.config, t.workload, t.plan) for t in tasks]
    payload = BatchEngine(runs).run_payload()
    with pytest.raises(ConfigurationError):
        decode_payload(payload, runs[:-1])


# ----------------------------------------------------------------------
# Executor routing
# ----------------------------------------------------------------------
def test_run_sweep_batched_falls_back_for_uncovered_points():
    covered = RunTask(
        make_config(), WorkloadSpec("complement", 0.3, seed=1), PLAN
    )
    uncovered = RunTask(
        make_config(), WorkloadSpec("hotspot", 0.3, seed=1), PLAN
    )
    tasks = [uncovered, covered, uncovered]
    results = run_sweep_batched(tasks)
    assert len(results) == 3
    assert results[1].extra["engine"] == "batch"
    # Fallback points run the scalar engine and are bit-identical to it.
    scalar = execute_tasks([uncovered])
    assert results[0].to_dict() == scalar[0].to_dict()
    assert results[2].to_dict() == scalar[0].to_dict()
    assert results[0].extra.get("engine") != "batch"


def test_run_sweep_batched_reports_results_by_task_index():
    tasks = grid_tasks(patterns=("complement",), loads=(0.3,))
    seen = {}
    results = run_sweep_batched(
        tasks, on_result=lambda i, r: seen.__setitem__(i, r)
    )
    assert sorted(seen) == list(range(len(tasks)))
    for i, result in enumerate(results):
        assert seen[i] is result


def test_run_sweep_batched_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_sweep_batched([], jobs=0)


def test_batch_kernel_version_is_declared():
    assert isinstance(BATCH_KERNEL_VERSION, int)
    assert BATCH_KERNEL_VERSION >= 1


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
def test_run_sweep_engine_batch_matches_direct_batch_execution():
    from repro.experiments.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        pattern="complement",
        loads=(0.3,),
        policies=("P-B",),
        boards=4,
        nodes_per_board=4,
        plan=PLAN,
    )
    results = run_sweep(spec, engine="batch")
    assert results["P-B"][0].extra["engine"] == "batch"
    reference = run_sweep(spec)
    report = compare_runs(reference["P-B"], results["P-B"])
    assert report.ok


def test_run_sweep_rejects_unknown_engine():
    from repro.errors import ConfigurationError
    from repro.experiments.sweep import SweepSpec, run_sweep

    spec = SweepSpec(pattern="complement", loads=(0.3,), plan=PLAN)
    with pytest.raises(ConfigurationError):
        run_sweep(spec, engine="warp")


# ----------------------------------------------------------------------
# Event-horizon time-skipping
# ----------------------------------------------------------------------
def payload_bytes(engine):
    """Every payload array, byte for byte — the bit-identity witness."""
    from dataclasses import fields

    payload = engine.run_payload()
    return tuple(
        getattr(payload, f.name).tobytes() for f in fields(payload)
    )


def run_pair(runs):
    """(skip payload bytes, no-skip payload bytes, skip telemetry)."""
    skip = BatchEngine(runs, time_skip=True)
    skip_bytes = payload_bytes(skip)
    noskip = BatchEngine(runs, time_skip=False)
    noskip_bytes = payload_bytes(noskip)
    return skip_bytes, noskip_bytes, skip.telemetry


def test_time_skip_is_bit_identical_on_a_mixed_grid(small_grid):
    tasks, _, _ = small_grid
    runs = [(t.config, t.workload, t.plan) for t in tasks]
    skip_bytes, noskip_bytes, telemetry = run_pair(runs)
    assert skip_bytes == noskip_bytes
    assert telemetry.cycles_skipped >= 0
    assert (
        telemetry.cycles_executed + telemetry.cycles_skipped
        <= telemetry.horizon
    )


def test_time_skip_identity_on_single_run_slab():
    runs = [
        (
            make_config("P-B"),
            WorkloadSpec(pattern="complement", load=0.1, seed=1),
            PLAN,
        )
    ]
    skip_bytes, noskip_bytes, telemetry = run_pair(runs)
    assert skip_bytes == noskip_bytes
    # A 1-run slab at load 0.1 is sparse: skipping must actually engage.
    assert telemetry.cycles_skipped > 0
    assert telemetry.cycles_executed < telemetry.horizon


def test_time_skip_identity_when_all_runs_drain_in_one_chunk():
    """Every run drains by the first drain-check grid point, so the
    engine compacts the whole slab once and breaks immediately."""
    runs = [
        (
            make_config(policy),
            WorkloadSpec(pattern="complement", load=0.2, seed=1),
            PLAN,
        )
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B")
    ]
    skip_bytes, noskip_bytes, telemetry = run_pair(runs)
    assert skip_bytes == noskip_bytes
    assert telemetry.compactions == 1
    assert telemetry.cycles_executed < telemetry.horizon


def test_time_skip_identity_with_zero_injections():
    """load=0.0 schedules no packets at all: the pure-skip path — the
    loop must visit only the mandatory control-plane/drain stops."""
    for policy in ("NP-NB", "P-B"):
        runs = [
            (
                make_config(policy),
                WorkloadSpec(pattern="complement", load=0.0, seed=1),
                PLAN,
            )
        ]
        skip_bytes, noskip_bytes, telemetry = run_pair(runs)
        assert skip_bytes == noskip_bytes, policy
        assert telemetry.injections == 0
        assert telemetry.deliveries == 0
        # Nothing to simulate: a handful of executed cycles at most.
        assert telemetry.cycles_executed <= 8


def test_engine_exposes_telemetry_in_both_modes():
    runs = [
        (
            make_config("P-NB"),
            WorkloadSpec(pattern="complement", load=0.3, seed=1),
            PLAN,
        )
    ]
    for time_skip in (True, False):
        engine = BatchEngine(runs, time_skip=time_skip)
        assert engine.telemetry is None
        engine.run_payload()
        tel = engine.telemetry
        assert tel is not None
        assert tel.injections > 0
        assert tel.dispatches > 0
        d = tel.to_dict()
        assert d["cycles_executed"] == tel.cycles_executed
        assert 0.0 <= d["skip_ratio"] <= 1.0
        if not time_skip:
            assert tel.cycles_skipped == 0


# ----------------------------------------------------------------------
# Golden payload digests: bit identity across loop restructurings
# ----------------------------------------------------------------------
# skip-vs-noskip identity cannot catch a change that moves both modes
# together, so one small saturated slab is pinned to payload digests
# recorded at commit 959f217 — the per-cycle receive phases, once-per-
# cycle blocked-sender retries and inline accounting the log-and-reduce
# loop replaced.  Any change that keeps BATCH_KERNEL_VERSION must
# reproduce them; a numerics change bumps the version and re-records.
GOLDEN_PLAN = MeasurementPlan(warmup=1000, measure=3000, drain_limit=3000)
GOLDEN_SLAB_SHA256 = (
    "8eb85c12ece4f51d5d15d8fe5df3a0641f96075a6a860b4a795ae9c5a70b5949"
)
#: The load-0.9 half of the slab run as its own engine.
GOLDEN_SUB_SLAB_SHA256 = (
    "8d790b6e637d38a5bfe4e0be788e1bb8008281b9790518320acfde3f3ac11de4"
)
#: Work the full slab's loop does, per skip mode, recorded at commit
#: 7582053 (dispatch candidates at a7488a3): a change that keeps the
#: bytes but executes more cycles, retries more senders or offers more
#: channels to the dispatch shows here.
GOLDEN_WORK = {
    True: {
        "cycles_executed": 5385, "cycles_skipped": 1616,
        "blocked_retries": 11160, "dispatch_candidates": 15778,
    },
    False: {
        "cycles_executed": 7001, "cycles_skipped": 0,
        "blocked_retries": 11160, "dispatch_candidates": 15778,
    },
}
GOLDEN_SUB_SLAB_WORK = {
    "cycles_executed": 4909, "cycles_skipped": 2092,
    "blocked_retries": 9811, "dispatch_candidates": 10389,
}
#: Event totals of the full slab at that commit (either skip mode).
GOLDEN_EVENT_TOTALS = {
    "injections": 19935,
    "deliveries": 13225,
    "port_exits": 15742,
    "dispatches": 13401,
    "recv_completions": 14830,
    "window_boundaries": 3,
    "drain_checks": 4,
    "compactions": 3,
}


def saturated_runs():
    """complement + uniform x four policies x loads 0.3 / 0.9 on R(1,4,4):
    load 0.9 blocks senders, and the runs drain at three different drain
    checks (two mid-slab compactions before the last)."""
    return [
        (make_config(policy), WorkloadSpec(pattern, load, seed=1), GOLDEN_PLAN)
        for pattern in ("complement", "uniform")
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B")
        for load in (0.3, 0.9)
    ]


def payload_sha256(engine):
    import hashlib

    return hashlib.sha256(b"".join(payload_bytes(engine))).hexdigest()


def work(telemetry):
    return {k: getattr(telemetry, k) for k in GOLDEN_SUB_SLAB_WORK}


@pytest.mark.parametrize("time_skip", [True, False])
def test_saturated_slab_reproduces_the_golden_digest(time_skip):
    engine = BatchEngine(saturated_runs(), time_skip=time_skip)
    assert payload_sha256(engine) == GOLDEN_SLAB_SHA256
    assert work(engine.telemetry) == GOLDEN_WORK[time_skip]
    # Logged deliveries/completions are counted at reduction time; their
    # totals are those of the per-cycle receive phases.
    telemetry = engine.telemetry.to_dict()
    assert {k: telemetry[k] for k in GOLDEN_EVENT_TOTALS} == GOLDEN_EVENT_TOTALS


def test_sub_slab_reproduces_the_golden_digest():
    engine = BatchEngine(saturated_runs()[1::2])
    assert payload_sha256(engine) == GOLDEN_SUB_SLAB_SHA256
    assert engine.telemetry.compactions == 3
    assert work(engine.telemetry) == GOLDEN_SUB_SLAB_WORK


@pytest.mark.parametrize("time_skip", [True, False])
def test_parked_pairs_without_a_pop_stay_full(time_skip):
    """The invariant behind retrying only just-popped pairs (and behind
    the time-skip rule): a pair with parked senders that no dispatch
    popped on the previous executed cycle is full, so retrying its
    senders would be a no-op.  ``_push_pairs`` is the one entry of the
    push, so the probe sees every push."""
    import numpy as np

    seen = []

    class Probe(BatchEngine):
        def _push_pairs(self, pq, loc, rn, t, poked, tel):
            waiting = np.flatnonzero(self.park_cnt)
            assert self.park_cnt.sum() == self.n_parked
            assert np.count_nonzero(self.p_blocked) == self.n_parked
            if self._popped is not None:
                assert (self.park_cnt[self._popped] > 0).all()
                waiting = np.setdiff1d(waiting, self._popped)
            assert (self.tx_qlen[waiting] == self.CAP).all(), t
            seen.append(len(waiting))
            return super()._push_pairs(pq, loc, rn, t, poked, tel)

    runs = [
        (make_config(policy), WorkloadSpec("complement", 0.9, seed=1), PLAN)
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B")
    ]
    Probe(runs, time_skip=time_skip).run_payload()
    assert max(seen) > 0  # the slab did park senders


def service_runs():
    """A service-shaped slab: four policies at one load on R(1,4,4).  Its
    P-NB/P-B runs sleep idle lasers, its NP-B/P-B runs grant."""
    return [
        (make_config(policy), WorkloadSpec("complement", 0.3, seed=3), GOLDEN_PLAN)
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B")
    ]


def check_parked_channels_are_the_idle_ones(runs, time_skip):
    """The invariant behind waking only parked channels after a push: on
    every cycle, dispatch serves exactly the channels it would serve with
    every channel of every pushed pair among its candidates (the rule
    before parked channels).  That rule is modelled here from the state
    before the dispatch: idle candidates, ascending, each served while
    its pair's queue lasts.  Returns the slab's payload."""
    import numpy as np

    checked = []

    class Probe(BatchEngine):
        pushed = (-1, [])

        def _push_pairs(self, pq, loc, rn, t, poked, tel):
            first = len(poked)
            freed = super()._push_pairs(pq, loc, rn, t, poked, tel)
            self.pushed = (t, poked[first:])
            return freed

        def _dispatch(self, t, candidates, tel):
            cand = set(candidates)
            if self.pushed[0] == t:
                for p in self.pushed[1]:
                    cand.update(self.pair_ch[p, : self.pair_nch[p]].tolist())
            want, left = set(), {}
            for rc in sorted(cand):
                if self.c_busy_until[rc] > t:
                    continue
                p = int(self.c_pq[rc])
                left.setdefault(p, int(self.tx_qlen[p]))
                if left[p] > 0:
                    want.add(rc)
                    left[p] -= 1
            before = self.c_busy_until.copy()
            super()._dispatch(t, candidates, tel)
            got = set(np.flatnonzero(self.c_busy_until != before).tolist())
            assert got == want, t
            checked.append(len(got))

    engine = Probe(runs, time_skip=time_skip)
    payload = engine.run_payload()
    assert sum(checked) == engine.telemetry.dispatches > 0
    return payload


@pytest.mark.parametrize("time_skip", [True, False])
def test_parked_channels_serve_what_waking_every_channel_serves(time_skip):
    for runs in (saturated_runs(), service_runs()):
        payload = check_parked_channels_are_the_idle_ones(runs, time_skip)
        # The slab exercises DBR grants and DPM-slept lasers.
        assert payload.grants.sum() > 0
        assert payload.sleeps.sum() > 0


def test_dispatch_candidates_are_counted():
    """Only service ends, fresh grants and the parked channels of pushed
    pairs are candidates: fewer than one per served packet on the
    saturated golden slab (every channel of a pushed pair would be over
    two)."""
    engine = BatchEngine(saturated_runs())
    engine.run_payload()
    tel = engine.telemetry
    assert tel.to_dict()["dispatch_candidates"] == tel.dispatch_candidates
    assert tel.dispatches <= tel.dispatch_candidates < 2 * tel.dispatches


# ----------------------------------------------------------------------
# next_event_time unit behaviour
# ----------------------------------------------------------------------
def occupy(ring, heap, cycle):
    """Schedule one event at absolute ``cycle``, as the engine does."""
    from heapq import heappush

    slot = cycle % len(ring)
    if not ring[slot]:
        heappush(heap, cycle)
    ring[slot] += 1


def test_next_event_time_stops():
    import numpy as np

    from repro.core.skip import next_event_time

    ring = np.zeros(16, dtype=np.int64)
    #: The loop's injection cursor: the next injection cycle after t.
    inj, none = 40, 901
    common = dict(
        lockstep=False, window_cycles=1000, measure_end=500, chunk=100,
        pend_min=None,
    )

    # An occupied ring slot at t+1 stops the jump at t+1.
    heap = []
    occupy(ring, heap, 11)
    assert next_event_time(10, 900, ring, heap, inj, **common) == 11
    ring[:] = 0
    heap.clear()

    # Otherwise: min over ring slots, injections, and the drain grid.
    occupy(ring, heap, 15)
    occupy(ring, heap, 15)
    assert next_event_time(10, 900, ring, heap, inj, **common) == 15
    ring[:] = 0
    heap.clear()

    assert next_event_time(10, 900, ring, heap, inj, **common) == 40
    assert next_event_time(39, 900, ring, heap, inj, **common) == 40

    t = next_event_time(60, 900, ring, heap, none, **common)
    assert t == 500  # measure_end is the first drain-check stop

    t = next_event_time(520, 900, ring, heap, none, **common)
    assert t == 600  # then every chunk on the drain grid

    # Lock-Step adds window boundaries and the earliest pending apply.
    t = next_event_time(10, 900, ring, heap, none, **{
        **common, "lockstep": True,
    })
    assert t == 500  # still the drain grid: boundary 1000 is later
    t = next_event_time(10, 900, ring, heap, inj, **{
        **common, "lockstep": True, "pend_min": 123,
    })
    assert t == 40
    t = next_event_time(50, 900, ring, heap, none, **{
        **common, "lockstep": True, "pend_min": 123,
    })
    assert t == 123

    # The jump clamps to hard_end + 1 (loop termination).
    t = next_event_time(880, 900, ring, heap, none,
                        **{**common, "measure_end": 100, "chunk": 10000})
    assert t == 901


def test_next_event_time_ring_wraparound():
    import numpy as np

    from repro.core.skip import next_event_time

    ring = np.zeros(16, dtype=np.int64)
    heap = []
    # Slot index below t % len: the occupied slot is *ahead* of t on the
    # wrapped ring, never behind it.
    occupy(ring, heap, 18)  # with t=12, len=16: slot 2
    assert ring[2] == 1
    # A slot a compaction emptied leaves a stale heap entry: skipped.
    occupy(ring, heap, 14)
    ring[14] = 0
    t = next_event_time(
        12, 900, ring, heap, 901,
        lockstep=False, window_cycles=1000, measure_end=800, chunk=100,
        pend_min=None,
    )
    assert t == 18
    assert heap == [18]


# ----------------------------------------------------------------------
# Slab memory: the injection CSR build, suffix compaction, traced peak
# ----------------------------------------------------------------------
def mixed_csr_runs(plan=PLAN):
    """Uniform and permutation workloads, a zero-load run, and the runs of
    one workload at non-adjacent slab positions."""
    return [
        (make_config("NP-NB"), WorkloadSpec("complement", 0.5, seed=1), plan),
        (make_config("P-B"), WorkloadSpec("uniform", 0.3, seed=1), plan),
        (make_config("P-NB"), WorkloadSpec("complement", 0.0, seed=1), plan),
        (make_config("NP-B"), WorkloadSpec("uniform", 0.3, seed=2), plan),
        (make_config("P-B"), WorkloadSpec("complement", 0.5, seed=1), plan),
        (make_config("NP-NB"), WorkloadSpec("uniform", 0.3, seed=1), plan),
        (make_config("P-NB"), WorkloadSpec("butterfly", 0.7, seed=3), plan),
    ]


def reference_csr(engine):
    """The construction the counting sort replaced: every run's node-major
    schedule concatenated in slab order, then one stable argsort over the
    injection cycles of the whole slab.  Routes are laid out one table per
    distinct workload, in order of first use; a run-node's ``p_off`` is
    where its routes start in its workload's table."""
    from dataclasses import astuple

    import numpy as np

    N = engine.N
    times_parts, rn_parts, route_parts, off_parts = [], [], [], []
    table_at = {}
    for r, workload in enumerate(engine._workloads):
        sched = engine._draw_schedule(workload)
        cycles = np.repeat(sched.cycles, sched.cycle_counts)
        nodes = sched.nodes.astype(np.int64)
        # Back to node-major order: by node, then injection cycle.
        times_parts.append(cycles[np.lexsort((cycles, nodes))])
        rn_parts.append(
            np.repeat(
                np.arange(r * N, (r + 1) * N, dtype=np.int64),
                sched.node_counts,
            )
        )
        key = astuple(workload)
        if key not in table_at:
            table_at[key] = sum(len(part) for part in route_parts)
            route_parts.append(sched.routes)
        node_start = np.cumsum(sched.node_counts) - sched.node_counts
        off_parts.append(table_at[key] + node_start)
    times_all = np.concatenate(times_parts)
    order = np.argsort(times_all, kind="stable")
    per_cycle = np.bincount(times_all, minlength=engine.he + 1)
    evt_off = np.zeros(engine.he + 2, dtype=np.int64)
    np.cumsum(per_cycle, out=evt_off[1 : len(per_cycle) + 1])
    return {
        "evt_off": evt_off,
        "evt_rn": np.concatenate(rn_parts)[order].astype(np.int32),
        "flat_route": np.concatenate(route_parts),
        "p_off": np.concatenate(off_parts).astype(np.int64),
        "inj_cycles": np.flatnonzero(np.diff(evt_off) > 0).astype(np.int64),
    }


def test_counting_sort_csr_matches_the_argsort_construction():
    engine = BatchEngine(mixed_csr_runs())
    assert engine.evt_off[-1] > 0
    for name, want in reference_csr(engine).items():
        got = getattr(engine, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_runs_of_one_workload_share_one_route_table():
    """Routes cost 4 B per packet of each distinct workload, not per
    packet of each run: a run's routes are its workload's block."""
    from dataclasses import astuple

    runs = mixed_csr_runs()
    engine = BatchEngine(runs)
    N = engine.N
    distinct = {}
    for _, workload, _ in runs:
        distinct.setdefault(astuple(workload), workload)
    packets = sum(
        int(engine._draw_schedule(w).node_counts.sum())
        for w in distinct.values()
    )
    assert len(distinct) < len(runs)
    assert engine.flat_route.nbytes == 4 * packets
    assert engine.evt_off[-1] > packets  # the events are still per run
    # Runs 0 and 4 (and 1 and 5) draw one workload: one block each.
    for a, b in ((0, 4), (1, 5)):
        assert runs[a][1] == runs[b][1]
        assert (
            engine.p_off[a * N : (a + 1) * N].tobytes()
            == engine.p_off[b * N : (b + 1) * N].tobytes()
        )
    assert engine.p_off.shape == (engine.R * N,)


def test_injection_csr_holds_4_byte_run_node_ids():
    engine = BatchEngine(mixed_csr_runs())
    assert engine.evt_rn.itemsize == 4


@pytest.mark.parametrize("time_skip", [True, False])
def test_compaction_keeps_only_the_unconsumed_csr_suffix(time_skip, monkeypatch):
    """After every compaction at cycle t the CSR holds exactly the events
    after t of the surviving runs, renumbered, and nothing at or before t;
    its offsets stay a well-formed CSR, whatever the block of cycles its
    survivors are counted over.  Every state array the cycle loop reads
    element by element still views its ``_py`` buffer, so the loop and
    the whole-slab steps see one state."""
    import numpy as np

    import repro.core.batch as batch
    from repro.core.batch import _SHARED

    def check_shared(engine):
        for name in _SHARED:
            a = getattr(engine, name)
            buf = np.frombuffer(getattr(engine, name + "_py"), dtype=a.dtype)
            assert buf.size == a.size and np.shares_memory(a, buf), name

    seen = []

    class Probe(BatchEngine):
        def _compact(self, done, t):
            N = self.N
            new_of_old = np.cumsum(~done) - 1
            cyc = np.repeat(
                np.arange(len(self.evt_off) - 1), np.diff(self.evt_off)
            )
            keep = (cyc > t) & ~done[self.evt_rn // N]
            rn = self.evt_rn[keep]
            want_rn = (new_of_old[rn // N] * N + rn % N).astype(np.int32)
            want_cyc = cyc[keep]
            keep_n = np.repeat(~done, N)
            want_off = self.p_off[keep_n]
            route = self.flat_route
            super()._compact(done, t)
            # Routes are not copied: the kept run-nodes keep their offsets
            # into the same table.
            assert self.flat_route is route
            assert self.p_off.tobytes() == want_off.tobytes()
            off = self.evt_off
            assert off[t + 1] == 0
            assert off[-1] == len(self.evt_rn)
            assert (np.diff(off) >= 0).all()
            assert self.evt_rn.tobytes() == want_rn.tobytes()
            got_cyc = np.repeat(np.arange(len(off) - 1), np.diff(off))
            assert (got_cyc == want_cyc).all()
            assert (self.inj_cycles == np.unique(want_cyc)).all()
            check_shared(self)
            seen.append(len(want_rn))

    runs = mixed_csr_runs(GOLDEN_PLAN)
    want = payload_bytes(BatchEngine(runs))
    for count_block in (3, batch._COUNT_BLOCK):
        monkeypatch.setattr(batch, "_COUNT_BLOCK", count_block)
        seen.clear()
        probe = Probe(runs, time_skip=time_skip)
        check_shared(probe)
        assert payload_bytes(probe) == want
        assert len(seen) >= 2
        assert max(seen) > 0  # some compaction kept unconsumed events


#: Traced-peak bound of the slab below, in live-CSR bytes.  It reaches
#: ~2.3x (in the loop, before the first compaction); the concatenate +
#: stable-argsort build reached ~3.4x and whole-horizon compaction ~3.1x.
SLAB_PEAK_PER_CSR_BYTE = 2.8

#: The same peak in bytes per run-packet (injection events at build).  It
#: reads ~41 B; with a route copy per run and 8-byte event ids, and a
#: compaction that rebuilt the dense offsets, it read ~53 B.  At 16 runs of
#: 612 packets on a 16 000-cycle horizon, most of it is the fixed state
#: (the dense offsets alone are 13 B per packet).
SLAB_PEAK_PER_RUN_PACKET = 45


def test_slab_traced_peak_is_bounded_by_its_csr():
    """Building and running a slab through its compactions allocates no
    scratch that rivals the injection CSR it keeps: the traced peak stays
    within a fixed multiple of ``evt_rn + flat_route + evt_off``."""
    import tracemalloc

    plan = MeasurementPlan(warmup=1000, measure=12000, drain_limit=3000)
    runs = [
        (
            make_config(policy, boards=2),
            WorkloadSpec(pattern, load, seed=1),
            plan,
        )
        for pattern in ("complement", "uniform")
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B")
        for load in (0.3, 0.6)
    ]
    # First-use allocations (numpy's lazily imported submodules) stay out
    # of the trace: the same slab runs once untraced.
    BatchEngine(runs).run_payload()
    tracemalloc.start()
    try:
        engine = BatchEngine(runs)
        csr = sum(
            getattr(engine, name).nbytes
            for name in ("evt_rn", "flat_route", "evt_off")
        )
        run_packets = int(engine.evt_off[-1])
        engine.run_payload()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.telemetry.compactions >= 1
    assert peak <= SLAB_PEAK_PER_CSR_BYTE * csr, peak / csr
    assert peak <= SLAB_PEAK_PER_RUN_PACKET * run_packets, peak / run_packets
