"""The batch (vectorized, struct-of-arrays) E-RAPID engine tier.

Third engine tier after :mod:`repro.core.engine` (fast, event-driven) and
:mod:`repro.core.detailed` (flit-level): a :class:`BatchEngine` advances
*many runs at once* on one shared integer cycle grid.  All per-run state —
node injection/ejection ports, per-pair transmitter queues, wavelength
ownership and power level, DPM window counters, energy accumulators — lives
in flat numpy struct-of-arrays indexed ``run-major``:

* node  ``rn = r * N + n``          (``N`` nodes per run),
* pair  ``pq = (r * B + s) * B + d``  (transmitter queue of board ``s``
  toward board ``d``),
* channel ``rc = r * (W * B) + w * B + d``  (wavelength ``w`` into ``d``).

Each cycle applies updates to every run simultaneously, and the loop is
doubly event-driven: phases scan only the indices carried by the event
rings, and the loop itself jumps over cycles that provably execute no
event (:mod:`repro.core.skip` computes the next-event time from per-slot
ring occupancy, the injection schedule, the Lock-Step grid and the drain
grid), so wall-clock cost scales with events executed, not cycles
simulated.  The loop keeps only state that decides *future events*: the
receive side (no back-pressure) and the busy-energy/link-utilisation
accounting are appended to logs and reduced in bulk on the ``chunk`` grid
(:mod:`repro.core.reduce`), bit-identically to per-cycle bookkeeping.
Runs that drain their labeled packets mid-slab are compacted
out of the state arrays (their finished metrics scattered to their
original slab positions) instead of being re-masked every phase.

Arrays serve the whole-slab steps: state construction, the Lock-Step
window snapshot, DPM/DBR application, compaction and the log
reductions.  The phases of an executed cycle touch a few elements
each, so they run element by element over plain int lists (through the
``_py`` views, see :data:`_SHARED`): a cycle costs about what its few
events cost, not the tens of fixed-cost numpy calls a vector form pays.

A slab's memory is its state, not scratch: per packet it keeps one
injection-CSR entry (8 bytes) and one route (4 bytes), and per dispatch
one float64 accounting record (40 bytes) until the next log flush.  The
CSR is filled by a counting sort over cycles, one workload's schedule
at a time, and each compaction rebuilds it from the events not yet
consumed, so no step allocates a copy of the whole horizon.  The
Lock-Step control plane (window snapshots, DPM decisions, DBR grant
plans with the real :func:`repro.core.dbr.dbr_plan`) runs at the same
window boundaries and protocol latencies as the fast engine.

Fidelity contract (enforced by the statistical-equivalence harness in
:mod:`repro.analysis.equivalence` through ``tests/test_core_batch.py``):

* **Bit-identical where streams allow**: injection gap draws go through
  :func:`repro.sim.rng.geometric_gap_array`, which consumes the PCG64
  stream exactly like the scalar path, so for permutation patterns (no
  per-packet destination draws) ``offered`` and ``labeled_injected`` match
  :class:`~repro.core.engine.FastEngine` bit for bit.  Uniform traffic
  interleaves destination draws on the scalar path and is statistically
  equivalent only.
* **Integer cycle grid**: service completions are rounded up to the next
  cycle before delivery, intra-board deliveries keep the fast engine's
  same-cycle hand-off, and blocked senders retry on the cycle after the
  freeing pop instead of exactly at it.  These quantizations shift
  per-packet timing by under a cycle and are covered by the declared
  tolerances.
* **Latency proxy**: per-packet identity is not tracked; labeled latency
  pairs the j-th labeled delivery with the j-th labeled injection (FIFO
  proxy, exact in expectation for drained runs).  ``p99_latency`` and
  ``max_latency`` are not available and report 0.

``coverage_gap`` says whether a run point is batchable; the executor falls
back to per-run scalar execution for anything it declines, so ``--engine
batch`` never changes *what* can be swept, only how fast.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ERapidConfig
from repro.core.dbr import DestDemand, WavelengthState, dbr_plan
from repro.core.reduce import (
    ACCT_FIELDS,
    AccountingLog,
    ReceiveLog,
    replay_accounting,
    tally_completions,
)
from repro.core.skip import BatchTelemetry, next_event_time
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.optics.rwa import StaticRWA
from repro.sim.rng import RngRegistry, geometric_gap_array, integer_array
from repro.traffic.capacity import CapacityParams
from repro.traffic.patterns import make_pattern
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "BATCH_KERNEL_VERSION",
    "coverage_gap",
    "slab_key",
    "BatchEngine",
    "BatchResultPayload",
    "decode_payload",
]

#: Version of the vectorized kernel, folded into batch cache keys so batch
#: results can never alias scalar entries (and are invalidated together
#: when the kernel's numerics change).
BATCH_KERNEL_VERSION = 1

#: Gap draws per vectorized refill while precomputing injection schedules.
_GAP_DRAW_CHUNK = 4096

#: Delivery/exit ring length in cycles; must exceed the longest scheduled
#: lead (wake + DVS stall + lowest-rate service + fiber/pipeline).
_RING = 512


#: The state arrays the cycle loop reads and writes one element at a time.
#: :meth:`BatchEngine._share` backs each with an ``array.array`` that the
#: numpy array views: ``name_py[i]`` reads a plain int or float and
#: writes in place at a fraction of the cost of numpy scalar access,
#: while the whole-slab steps keep indexing ``name``.
_SHARED = (
    "p_injcnt", "p_started", "p_busy", "p_blocked", "p_off",
    "tx_ring", "tx_head", "tx_qlen", "q_mom", "park_cnt", "pair_ch",
    "pair_nch", "c_level", "c_sleep", "c_stall", "c_busy_until", "c_pq",
    "c_parked", "pair_arr",
)
_TYPECODE = {
    np.dtype(np.int64): "q", np.dtype(np.int32): "i", np.dtype(np.int16): "h",
    np.dtype(np.int8): "b", np.dtype(bool): "B", np.dtype(np.float64): "d",
}

#: Injection cycles per survivor-count call when a compaction rebuilds
#: the CSR offsets (BatchEngine._compact_csr): it bounds the call's
#: widened copy of its share of the keep mask.
_COUNT_BLOCK = 1024

#: Scalar dispatch records (x ACCT_FIELDS values) the logs hold as
#: Python objects before they are packed into arrays.
_SEAL_FLOATS = 512 * ACCT_FIELDS

#: An empty index array: the routes a drawn schedule no longer carries.
_NO_IDX = np.zeros(0, dtype=np.int64)


class _Schedule(NamedTuple):
    """One workload's precomputed traffic, shared read-only by every run
    of the slab with that workload."""

    node_counts: np.ndarray  #: packets per node
    cycles: np.ndarray  #: the distinct injection cycles, ascending
    cycle_counts: np.ndarray  #: packets injected at each of those cycles
    nodes: np.ndarray  #: source node of each packet, by cycle, then node
    routes: np.ndarray  #: node-major; see BatchEngine._draw_schedule
    pre_wu: int  #: packets injected before warmup ends
    pre_me: int  #: packets injected before the measure window ends
    lab_prefix: np.ndarray  #: prefix sums of the labeled injection cycles


# ----------------------------------------------------------------------
# Compact result transport
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BatchResultPayload:
    """Struct-of-arrays transport of one slab's results.

    A batch worker returns this instead of a list of
    :class:`~repro.metrics.collector.RunResult` objects: ten flat numpy
    arrays (one slot per run) pickle in a handful of buffer copies,
    where the equivalent ``RunResult`` list would serialize one Python
    object graph per run.  :func:`decode_payload` rebuilds the exact
    ``RunResult`` sequence in the parent from the caller's own run
    descriptions — the payload carries *measurements*, never config —
    and :meth:`BatchEngine.run` itself goes through the same decode, so
    in-process and cross-process execution share one code path and are
    bit-identical by construction.
    """

    delivered_measure: np.ndarray
    inj_measure: np.ndarray
    lab_inj: np.ndarray
    lab_del: np.ndarray
    avg_latency: np.ndarray
    power_mw: np.ndarray
    grants: np.ndarray
    dpm_transitions: np.ndarray
    sleeps: np.ndarray
    lasers_on_final: np.ndarray

    def __len__(self) -> int:
        return len(self.delivered_measure)

    @property
    def nbytes(self) -> int:
        """Total buffer bytes (the transported volume, headers aside)."""
        return sum(
            getattr(self, f).nbytes for f in self.__dataclass_fields__
        )


def decode_payload(
    payload: BatchResultPayload,
    runs: Sequence[Tuple[ERapidConfig, WorkloadSpec, MeasurementPlan]],
) -> List[RunResult]:
    """Rebuild the per-run :class:`RunResult` list from a slab payload.

    ``runs`` must be the exact run descriptions the producing
    :class:`BatchEngine` was built from (same order); the decoder takes
    policy/pattern/load metadata and the throughput denominators from
    them, so a payload can never be replayed against the wrong slab
    without tripping the length check.
    """
    if len(runs) != len(payload):
        raise ConfigurationError(
            f"payload carries {len(payload)} runs, caller described "
            f"{len(runs)}"
        )
    out: List[RunResult] = []
    for r, (config, workload, plan) in enumerate(runs):
        nodes = config.topology.total_nodes
        measure = float(plan.measure)
        out.append(
            RunResult(
                throughput=int(payload.delivered_measure[r]) / (measure * nodes),
                offered=int(payload.inj_measure[r]) / (measure * nodes),
                avg_latency=float(payload.avg_latency[r]),
                p99_latency=0.0,
                max_latency=0.0,
                power_mw=float(payload.power_mw[r]),
                labeled_injected=int(payload.lab_inj[r]),
                labeled_delivered=int(payload.lab_del[r]),
                delivered_measure=int(payload.delivered_measure[r]),
                extra={
                    "policy": config.policy.name,
                    "pattern": workload.pattern,
                    "load": workload.load,
                    "grants": int(payload.grants[r]),
                    "dpm_transitions": int(payload.dpm_transitions[r]),
                    "sleeps": int(payload.sleeps[r]),
                    "lasers_on_final": int(payload.lasers_on_final[r]),
                    "events": 0,
                    "engine": "batch",
                },
            )
        )
    return out


# ----------------------------------------------------------------------
# Coverage and slab partitioning
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _pattern_gap(name: str, n_nodes: int) -> Optional[str]:
    """:func:`coverage_gap`'s pattern verdict, built once per (pattern,
    node count) per process: the pattern is resolved as
    :meth:`WorkloadSpec.resolve_pattern` does, only to be classified."""
    try:
        pattern = make_pattern(name, n_nodes)
    except Exception as exc:  # noqa: BLE001 - reason string for fallback
        return f"pattern {name!r} not resolvable: {exc}"
    if not pattern.is_permutation and pattern.name != "uniform":
        return f"pattern {name!r} is neither uniform nor a permutation"
    return None


def coverage_gap(
    config: ERapidConfig, workload: WorkloadSpec, plan: MeasurementPlan
) -> Optional[str]:
    """Why this run point cannot run on the batch engine (None = it can).

    The executor uses this to route uncovered points to the scalar
    fallback; tests assert the reasons stay accurate.
    """
    if workload.process != "bernoulli":
        return f"injection process {workload.process!r} is not vectorized"
    gap = _pattern_gap(workload.pattern, config.topology.total_nodes)
    if gap is not None:
        return gap
    if config.policy.dpm_smoothing != 0.0:
        return "dpm_smoothing requires per-window EWMA state (scalar only)"
    for name in ("warmup", "measure", "drain_limit"):
        value = float(getattr(plan, name))
        if not value.is_integer():
            return f"plan.{name}={value} is not on the integer cycle grid"
    chunk = max(1000.0, config.control.window_cycles / 2)
    if not float(chunk).is_integer():
        return "drain chunk is fractional (odd window_cycles)"
    if config.topology.total_nodes > 32000:
        return "topology too large for int16 destination arrays"
    # A service (plus wake + worst DVS stall + delivery) must never span
    # more than one window boundary, or the single-slot busy-carry
    # accounting breaks.
    levels = config.power_levels
    svc_max = config.optical.packet_service_cycles(
        workload.packet_bytes, levels.lowest.bit_rate_gbps
    )
    per_step = max(
        config.transitions.voltage_transition_cycles,
        config.transitions.frequency_relock_cycles,
    )
    d_nodes = config.topology.nodes_per_board
    lead = (
        config.wake_cycles
        + per_step * (len(levels) - 1)
        + svc_max
        + config.optical.fiber_latency_cycles
        + config.router.pipeline_cycles
        + config.control.power_cycle_latency(d_nodes)
    )
    if config.control.window_cycles < 2 * lead:
        return f"window_cycles={config.control.window_cycles} < 2x max lead {lead:.0f}"
    if lead + 8 >= _RING:
        return f"max event lead {lead:.0f} exceeds the ring horizon {_RING}"
    send_lead = int(config.router.packet_serialization_cycles) + int(
        config.router.pipeline_cycles
    )
    if send_lead + 8 >= _RING:
        return f"send lead {send_lead} exceeds the ring horizon {_RING}"
    boards = config.topology.boards
    if config.control.power_cycle_latency(d_nodes) >= config.control.window_cycles:
        return "power cycle latency spills past the next window"
    if config.control.dbr_cycle_latency(boards, d_nodes) >= config.control.window_cycles:
        return "DBR cycle latency spills past the next window"
    return None


def slab_key(
    config: ERapidConfig, workload: WorkloadSpec, plan: MeasurementPlan
) -> Tuple[object, ...]:
    """Hashable key grouping run points one :class:`BatchEngine` can share.

    Everything that shapes the shared cycle grid and array geometry is in
    the key; policy, pattern, load and workload seed vary freely within a
    slab (they are per-run columns).
    """
    t = config.topology
    levels = tuple(
        (lvl.name, lvl.bit_rate_gbps, lvl.vdd, lvl.link_power_mw)
        for lvl in config.power_levels.levels
    )
    return (
        (t.clusters, t.boards, t.nodes_per_board, t.wavelengths),
        (
            config.router.channel_bits,
            config.router.clock_ghz,
            config.router.pipeline_cycles,
            config.router.packet_bytes,
            config.router.flit_bytes,
        ),
        (
            config.control.window_cycles,
            config.control.lc_hop_cycles,
            config.control.rc_hop_cycles,
            config.control.compute_cycles,
        ),
        (config.optical.clock_ghz, config.optical.fiber_latency_cycles),
        levels,
        config.link_power.idle_fraction,
        (
            config.transitions.frequency_relock_cycles,
            config.transitions.voltage_transition_cycles,
        ),
        config.tx_queue_capacity,
        config.wake_cycles,
        config.seed,
        (float(plan.warmup), float(plan.measure), float(plan.drain_limit)),
        (workload.packet_bytes, workload.flit_bytes, workload.process),
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class BatchEngine:
    """Advance a slab of run points simultaneously in numpy.

    ``time_skip`` (default on) lets the cycle loop jump over spans that
    provably execute no event; results are bit-identical either way
    (``tests/test_core_batch.py`` compares the payload bytes), so
    ``time_skip=False`` exists as the always-step reference and for
    debugging.  After :meth:`run_payload` the engine exposes a
    :class:`~repro.core.skip.BatchTelemetry` on ``self.telemetry``.
    """

    def __init__(
        self,
        runs: Sequence[Tuple[ERapidConfig, WorkloadSpec, MeasurementPlan]],
        time_skip: bool = True,
    ) -> None:
        if not runs:
            raise ConfigurationError("BatchEngine needs at least one run")
        keys = {slab_key(*run) for run in runs}
        if len(keys) > 1:
            raise ConfigurationError(
                f"runs span {len(keys)} slabs; partition with slab_key first"
            )
        for i, run in enumerate(runs):
            gap = coverage_gap(*run)
            if gap is not None:
                raise ConfigurationError(f"run {i} not batchable: {gap}")
        self.runs = list(runs)
        config, workload, plan = self.runs[0]
        self.config = config
        self.plan = plan
        topo = config.topology
        self.R = len(self.runs)
        self.B = topo.boards
        self.D = topo.nodes_per_board
        self.N = topo.total_nodes
        self.W = topo.wavelengths
        self.CH = self.W * self.B
        self.wu = int(plan.warmup)
        self.me = int(plan.measure_end)
        self.he = int(plan.hard_end)
        self.measure = float(plan.measure)
        self.Wc = int(config.control.window_cycles)
        self.chunk = int(max(1000.0, self.Wc / 2))
        self.SER = int(config.router.packet_serialization_cycles)
        self.SEND = self.SER + int(config.router.pipeline_cycles)
        self.DELIV = int(
            config.optical.fiber_latency_cycles + config.router.pipeline_cycles
        )
        self.CAP = int(config.tx_queue_capacity)
        self.WAKE = int(config.wake_cycles)
        self.rwa = StaticRWA(self.B)
        levels = config.power_levels
        self.L = len(levels)
        self.P_mw = np.array([lvl.link_power_mw for lvl in levels.levels])
        self.svc_by_level = np.array(
            [
                config.optical.packet_service_cycles(
                    workload.packet_bytes, lvl.bit_rate_gbps
                )
                for lvl in levels.levels
            ]
        )
        self.svc_py: List[float] = self.svc_by_level.tolist()
        self.step_stall = int(
            max(
                config.transitions.voltage_transition_cycles,
                config.transitions.frequency_relock_cycles,
            )
        )
        self.power_lat = int(config.control.power_cycle_latency(self.D))
        self.dbr_lat = int(config.control.dbr_cycle_latency(self.B, self.D))
        self.idle_frac = float(config.link_power.idle_fraction)
        self._policies = [cfg.policy for cfg, _, _ in self.runs]
        self._workloads = [wl for _, wl, _ in self.runs]
        self.time_skip = bool(time_skip)
        self.telemetry: Optional[BatchTelemetry] = None
        self._build_state()

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _build_state(self) -> None:
        R, B, D, N, W, CH = self.R, self.B, self.D, self.N, self.W, self.CH
        RN, RC, RBB = R * N, R * CH, R * B * B
        # Send ports (one per node): packets arrived / started, port state.
        self.p_injcnt = np.zeros(RN, dtype=np.int64)
        self.p_started = np.zeros(RN, dtype=np.int64)
        self.p_busy = np.zeros(RN, dtype=bool)
        self.p_blocked = np.zeros(RN, dtype=bool)
        # Blocked senders park in a FIFO per full pair they wait on, as
        # (node, local destination) in parking order — their admission
        # order.  A pair has at most D of them: a list is enough.  Only
        # the senders of a pair popped on the previous executed cycle are
        # retried (self._popped): a pair with parked senders and no pop
        # is still full.
        self.park_q: Dict[int, List[Tuple[int, int]]] = {}
        self.park_cnt = np.zeros(RBB, dtype=np.int64)
        self.n_parked = 0
        self._popped: Optional[List[int]] = None  # ascending, distinct
        # Pair transmitter queues: bounded rings of local dest-node ids.
        self.tx_ring = np.zeros(RBB * self.CAP, dtype=np.int16)
        self.tx_head = np.zeros(RBB, dtype=np.int64)
        self.tx_qlen = np.zeros(RBB, dtype=np.int64)
        # Queue-length integral, kept as a first moment: with q_mom the
        # running sum of (length change x cycle), tx_qlen * t - q_mom is
        # the integral of the queue length over [0, t] — exact integers,
        # one fused update per push/pop.  occ_base holds its value at the
        # last window boundary.
        self.q_mom = np.zeros(RBB, dtype=np.int64)
        self.occ_base = np.zeros(RBB, dtype=np.int64)
        # Optical channels.
        self.c_owner = np.full(RC, -1, dtype=np.int16)
        self.c_level = np.full(RC, self.L - 1, dtype=np.int8)
        self.c_sleep = np.zeros(RC, dtype=bool)
        self.c_stall = np.zeros(RC, dtype=np.int64)
        self.c_busy_until = np.zeros(RC)
        self.c_pq = np.zeros(RC, dtype=np.int64)
        self.win_busy = np.zeros(RC)
        self.win_carry = np.zeros(RC)
        # Receive side and dispatch accounting are logged, not simulated
        # per cycle (see repro.core.reduce).  Every arrival cycle is below
        # he + _RING: a dispatch at t <= he leads by less than the ring.
        self.recv = ReceiveLog(R, N, self.SER, self.he + _RING)
        # Arrival key of each pair's destination board's first node, plus
        # the fiber/pipeline lead: a dispatch adds its packet's local
        # destination (x horizon) and completion cycle.  A function of
        # the pair index alone, so compaction keeps a prefix.
        pq_all = np.arange(RBB, dtype=np.int64)
        self.pair_arr = (
            (pq_all // (B * B) * N + pq_all % B * D) * self.recv.horizon
            + self.DELIV
        )
        self._local_logged = 0
        self._acct = AccountingLog()
        # Per-run accumulators.
        self.delivered_total = np.zeros(R, dtype=np.int64)
        self.delivered_measure = np.zeros(R, dtype=np.int64)
        self.lab_del = np.zeros(R, dtype=np.int64)
        self.sum_del_t = np.zeros(R)
        self.base_A = np.zeros(R)
        self.base_last = np.zeros(R)
        self.base_E = np.zeros(R)
        self.busy_E = np.zeros(R)
        self.grants = np.zeros(R, dtype=np.int64)
        self.dpm_transitions = np.zeros(R, dtype=np.int64)
        self.sleeps = np.zeros(R, dtype=np.int64)
        # Original-index bookkeeping + per-run outputs: drained runs are
        # compacted out of the live arrays (never re-masked), their final
        # metrics scattered here at their original slab positions.
        self.orig = np.arange(R, dtype=np.int64)
        self.out_delivered = np.zeros(R, dtype=np.int64)
        self.out_inj = np.zeros(R, dtype=np.int64)
        self.out_lab_inj = np.zeros(R, dtype=np.int64)
        self.out_lab_del = np.zeros(R, dtype=np.int64)
        self.out_avg_lat = np.zeros(R)
        self.out_power = np.zeros(R)
        self.out_grants = np.zeros(R, dtype=np.int64)
        self.out_dpm = np.zeros(R, dtype=np.int64)
        self.out_sleeps = np.zeros(R, dtype=np.int64)
        self.out_lasers = np.zeros(R, dtype=np.int64)
        # Static RWA ownership, replicated per run: owner[d][w] = s.
        for s in range(B):
            for d in range(B):
                if s == d:
                    continue
                w = self.rwa.wavelength_for(s, d)
                c = w * B + d
                self.c_owner[c::CH] = s
                self.c_pq[c::CH] = (
                    np.arange(R, dtype=np.int64) * B + s
                ) * B + d
        owned_per_run = int(np.count_nonzero(self.c_owner[:CH] >= 0))
        self.base_A[:] = owned_per_run * self.P_mw[self.L - 1]
        # Reverse index pair -> owned channels, so pushes can poke exactly
        # the channels that might dispatch (updated incrementally on DBR
        # grants; W is a hard upper bound on channels per pair).
        self.pair_ch = np.full((RBB, W), -1, dtype=np.int64)
        self.pair_nch = np.zeros(RBB, dtype=np.int64)
        for rc in np.flatnonzero(self.c_owner >= 0):
            pq = self.c_pq[rc]
            self.pair_ch[pq, self.pair_nch[pq]] = rc
            self.pair_nch[pq] += 1
        # Parked channels: idle and not served at their last dispatch
        # attempt (every channel starts so).  Any other idle channel has
        # its service end in this cycle's ring slot, so a push pokes only
        # its pairs' parked channels — the busy ones could not serve.
        # One entry past the channels stays False, so the -1 padding of
        # ``pair_ch`` rows reads as "not parked".
        self.c_parked = np.ones(RC + 1, dtype=bool)
        self.c_parked[RC] = False
        # Per-run policy columns, expanded to channel rows.
        dpm = np.array([p.dpm for p in self._policies])
        dbr = np.array([p.dbr for p in self._policies])
        self.run_dpm = dpm
        self.run_dbr = dbr
        self.lockstep_on = bool((dpm | dbr).any())
        thr = [p.thresholds for p in self._policies]
        self.thr_lmin_rc = np.repeat([t.l_min for t in thr], CH)
        self.thr_lmax_rc = np.repeat([t.l_max for t in thr], CH)
        self.thr_bmax_rc = np.repeat([t.b_max for t in thr], CH)
        # Precomputed injection schedules + per-packet routes.
        self._build_traffic()
        # Event rings: one list of ints per cycle slot.  The loop is
        # event-driven — every phase scans only the indices carried by
        # these rings (plus this cycle's injections), never the full state
        # arrays, so per-cycle cost scales with activity.  Only the start
        # phase of cycle ``s - SEND`` schedules port exits at ``s``.
        self.ring_pexit: List[Optional[List[int]]] = [None] * _RING
        # Channels whose service ends (and may redispatch) at a cycle.
        self.ring_cend: List[List[int]] = [[] for _ in range(_RING)]
        # Per-slot ring occupancy: how many of the two rings hold events
        # in the slot; a ring that fills a slot pairs with an increment,
        # and the slot is zeroed when the loop lands on it.  The heap
        # holds the absolute cycle of every occupied slot (pushed when the
        # slot fills, popped when the loop lands on it; a slot a
        # compaction empties leaves a stale entry, dropped lazily) — the
        # time-skip loop's next-event index
        # (repro.core.skip.next_event_time).
        self.ring_occ = [0] * _RING
        self._ring_heap: List[int] = []
        # Pending control-plane applications, keyed by apply cycle.
        self._pend_dpm: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._pend_dbr: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._share()

    def _share(self) -> None:
        """Back every :data:`_SHARED` array with an ``array.array``.

        Copies each array into a Python array of the same element type
        and rebinds ``name`` to a numpy view of it, ``name_py`` to the
        array itself: one buffer, so a write through either view is seen
        by the other.  Called whenever those arrays are rebuilt.
        """
        for name in _SHARED:
            a = getattr(self, name)
            buf = array(_TYPECODE[a.dtype])
            buf.frombytes(a.reshape(-1).view(np.uint8))
            setattr(self, name, np.frombuffer(buf, dtype=a.dtype).reshape(a.shape))
            setattr(self, name + "_py", buf)
        #: What every dispatch reads, bound once per rebuild.
        self._dispatch_views = (
            self.c_busy_until_py, self.c_pq_py, self.c_level_py,
            self.c_sleep_py, self.c_stall_py, self.c_parked_py,
            self.tx_qlen_py, self.tx_head_py, self.tx_ring_py, self.q_mom_py,
            self.pair_arr_py,
        )

    def _build_traffic(self) -> None:
        """Draw every run's full injection schedule up front.

        Gap draws consume each node's named stream exactly as the scalar
        engine does (chunk size cannot change the values); uniform
        destination draws are chunked on the same stream afterwards, which
        is the documented statistically-equivalent deviation.  A schedule
        is a function of the workload alone (the slab shares one config),
        so each distinct workload is drawn once and shared by its runs —
        the four policies of a sweep point see common random numbers.

        Routes are kept once per distinct workload: ``flat_route`` holds
        each workload's node-major route table, in order of first use, and
        ``p_off[rn]`` is where run-node ``rn``'s routes start in its
        workload's table, so runs of one workload read the same block.
        The injection CSR (``evt_off``/``evt_rn``: the nodes injecting at
        each cycle, by run, then node) is filled by a counting sort over
        cycles: the per-cycle totals fix ``evt_off``, then each run, in
        slab order, writes its workload's cycle-ordered packets at the
        next free slots of their cycles.  Nothing larger than the final
        arrays is ever alive: a workload's schedule is released after its
        last run is written.
        """
        R, N = self.R, self.N
        keys = [astuple(workload) for workload in self._workloads]
        last_run = {key: r for r, key in enumerate(keys)}
        drawn: Dict[Tuple[object, ...], _Schedule] = {}
        # The route tables in order of first use, and where each node's
        # routes start in their concatenation, per workload.
        tables: List[np.ndarray] = []
        node_start: Dict[Tuple[object, ...], np.ndarray] = {}
        n_routes = 0
        # Cycle c's packet count goes to evt_off[c + 2] (every cycle is
        # below he), so after the cumsum evt_off[c + 1] is where cycle c
        # starts: that slot is the write cursor of cycle c, and once every
        # run is written it has advanced to where cycle c + 1 starts.
        off = self.evt_off = np.zeros(self.he + 2, dtype=np.int64)
        self.p_off = np.empty(R * N, dtype=np.int64)
        self.inj_measure = np.zeros(R, dtype=np.int64)
        self.pre_wu_inj = np.zeros(R, dtype=np.int64)
        self.lab_prefix: List[np.ndarray] = []
        for r, (key, workload) in enumerate(zip(keys, self._workloads)):
            if key not in drawn:
                sched = self._draw_schedule(workload)
                start = np.cumsum(sched.node_counts)
                start -= sched.node_counts - n_routes
                node_start[key] = start
                n_routes += len(sched.routes)
                tables.append(sched.routes)
                # flat_route keeps the routes; the schedule drops them.
                drawn[key] = sched._replace(routes=_NO_IDX)
            sched = drawn[key]
            self.p_off[r * N : (r + 1) * N] = node_start[key]
            off[sched.cycles + 2] += sched.cycle_counts
            self.inj_measure[r] = sched.pre_me - sched.pre_wu
            self.pre_wu_inj[r] = sched.pre_wu
            self.lab_prefix.append(sched.lab_prefix)
        self.lab_inj = self.inj_measure.copy()
        self.flat_route = np.concatenate(tables)
        del tables
        # Compressed nonzero-injection-cycle index (ascending) — the
        # time-skip loop's "next injection" pointer walks this instead of
        # scanning the dense CSR offsets.
        self.inj_cycles = np.flatnonzero(off[2:])
        np.cumsum(off, out=off)
        # Run-node ids are below R * N: 4 bytes hold them.
        self.evt_rn = np.empty(int(off[-1]), dtype=np.int32)
        for r, key in enumerate(keys):
            sched = drawn[key]
            # A packet's slot is its cycle's cursor plus its rank among
            # the run's packets of that cycle.
            cursor = sched.cycles + 1
            pos = np.cumsum(sched.cycle_counts)
            pos -= sched.cycle_counts
            np.subtract(off[cursor], pos, out=pos)
            pos = np.repeat(pos, sched.cycle_counts)
            pos += np.arange(len(pos), dtype=np.int64)
            self.evt_rn[pos] = sched.nodes + r * N
            off[cursor] += sched.cycle_counts
            if last_run[key] == r:
                del drawn[key]

    def _draw_schedule(self, workload: WorkloadSpec) -> _Schedule:
        """Draw one workload's injection cycles and per-packet routes.

        A packet's route is fixed when it is drawn, so it is resolved
        here, once: ``(pair within the run) * D + local destination`` for
        a packet bound for another board, ``-1 - destination node`` for a
        same-board hand-off.
        """
        cfg = self.config
        N, D, he = self.N, self.D, self.he
        params = CapacityParams(
            packet_bits=cfg.router.packet_bytes * 8,
            optical_gbps=cfg.power_levels.highest.bit_rate_gbps,
            electrical_gbps=cfg.router.port_gbps,
            clock_ghz=cfg.router.clock_ghz,
        )
        rate = workload.injection_rate(cfg.topology, params)
        pattern = workload.resolve_pattern(cfg.topology)
        registry = RngRegistry(seed=workload.seed)
        # One sized draw usually covers the horizon (mean gap 1/rate, so
        # ~he*rate gaps reach he; the 6-sigma margin makes a top-up draw
        # rare).  Chunking never changes the values drawn.
        mean_gaps = he * rate
        n0 = int(mean_gaps + 6.0 * math.sqrt(mean_gaps) + 16.0)
        node_counts = np.zeros(N, dtype=np.int64)
        times_parts: List[np.ndarray] = []
        route_parts: List[np.ndarray] = []
        lab_times: List[np.ndarray] = []
        pre_wu = pre_me = 0
        for n in range(N):
            stream = registry.stream(f"inject.{n}")
            if rate <= 0.0:
                t = np.zeros(0, dtype=np.int64)
            else:
                g = geometric_gap_array(stream, rate, n0)
                total = int(g.sum())
                if total < he:
                    gaps = [g]
                    while total < he:
                        g2 = geometric_gap_array(stream, rate, _GAP_DRAW_CHUNK)
                        gaps.append(g2)
                        total += int(g2.sum())
                    g = np.concatenate(gaps)
                t = np.cumsum(g)
                t = t[: np.searchsorted(t, he)]
            node_counts[n] = len(t)
            times_parts.append(t)
            lo = int(np.searchsorted(t, self.wu))
            hi = int(np.searchsorted(t, self.me))
            pre_wu += lo
            pre_me += hi
            lab_times.append(t[lo:hi])
            if pattern.is_permutation:
                d = np.full(len(t), pattern.dest(n), dtype=np.int64)
            else:
                d = integer_array(stream, 0, N - 1, len(t)).astype(np.int64)
                d += d >= n
            sb, db = n // D, d // D
            route_parts.append(
                np.where(db == sb, -1 - d, (sb * self.B + db) * D + d % D)
            )
        lab = np.sort(np.concatenate(lab_times))
        prefix = np.zeros(len(lab) + 1)
        np.cumsum(lab, out=prefix[1:])
        times = np.concatenate(times_parts).astype(np.int64)
        order = times.argsort(kind="stable")
        cycles, cycle_counts = np.unique(times, return_counts=True)
        return _Schedule(
            node_counts,
            cycles.astype(np.int32),
            cycle_counts.astype(np.int32),
            np.repeat(np.arange(N, dtype=np.int32), node_counts)[order],
            np.concatenate(route_parts).astype(np.int32),
            pre_wu,
            pre_me,
            prefix,
        )

    # ------------------------------------------------------------------
    # Energy bookkeeping
    # ------------------------------------------------------------------
    def _flush_base(self, run_idx: np.ndarray, t: int) -> None:
        """Integrate enabled-channel power A(t) up to ``t`` for these runs."""
        ov = np.clip(
            np.minimum(t, self.me) - np.maximum(self.base_last[run_idx], self.wu),
            0.0,
            None,
        )
        self.base_E[run_idx] += self.base_A[run_idx] * ov
        self.base_last[run_idx] = t

    # ------------------------------------------------------------------
    # Log reduction (see repro.core.reduce)
    # ------------------------------------------------------------------
    def _flush_acct(self) -> None:
        """Replay the dispatch accounting log into busy_E/win_busy/win_carry."""
        replay_accounting(
            self._acct.take(), self.CH, self.Wc, self.wu, self.me, self.P_mw,
            self.busy_E, self.win_busy, self.win_carry,
        )

    def _flush_logs(self, t: int, tel: BatchTelemetry) -> None:
        """Reduce both logs up to cycle ``t``: afterwards every per-run
        counter holds exactly what per-cycle bookkeeping would at ``t``."""
        self._flush_acct()
        landed, run, c = self.recv.flush(t)
        # Local hand-offs land on the cycle that logs them, so all of
        # them are among the landed arrivals; the rest came over fiber.
        tel.deliveries += landed - self._local_logged
        self._local_logged = 0
        tel.recv_completions += len(run)
        tally_completions(
            run, c, self.wu, self.me, self.pre_wu_inj, self.lab_inj,
            self.delivered_total, self.delivered_measure, self.lab_del,
            self.sum_del_t,
        )

    # ------------------------------------------------------------------
    # Pair-queue helpers
    # ------------------------------------------------------------------
    def _push_pairs(
        self,
        pq: List[int],
        loc: List[int],
        rn: List[int],
        t: int,
        poked: List[int],
        tel: BatchTelemetry,
    ) -> List[int]:
        """Ranked admission of this cycle's packets into their pair queues.

        ``rn``/``pq``/``loc`` are the fresh port exits bound for another
        board (possibly none).  Parked senders of the pairs in
        ``self._popped`` — the pairs a dispatch popped on the previous
        executed cycle — are admitted first (:meth:`_retry_parked`), so
        they keep their earlier admission priority; every other parked
        sender's pair is still full (only a pop frees a slot), so retrying
        it would be an exact no-op.  The fresh exits are then taken in
        exit order, and each pair's length is updated as it admits, so a
        sender's rank within its pair is the number of its pair's senders
        before it (the scalar engine admits in event order — a same-cycle
        tie broken differently, inside tolerance).  Senders that do not
        fit park at the back of their pair's FIFO.  The pairs that
        received packets are appended to ``poked``, each once per half, so
        the dispatch phase can wake exactly their parked channels.
        Returns the retried senders that were admitted, by pair, then
        parking order.
        """
        freed = self._retry_parked(t, poked, tel) if self._popped is not None else []
        CAP, tx_ring, q_mom = self.CAP, self.tx_ring_py, self.q_mom_py
        tx_qlen, tx_head = self.tx_qlen_py, self.tx_head_py
        park_q, park_cnt, p_blocked = self.park_q, self.park_cnt_py, self.p_blocked_py
        parked = 0
        upq: Dict[int, None] = {}
        for p, lc, n in zip(pq, loc, rn):
            qlen = tx_qlen[p]
            if qlen < CAP:
                tx_ring[p * CAP + (tx_head[p] + qlen) % CAP] = lc
                tx_qlen[p] = qlen + 1
                q_mom[p] += t
                upq[p] = None
            else:
                p_blocked[n] = True
                fifo = park_q.get(p)
                if fifo is None:
                    fifo = park_q[p] = []
                fifo.append((n, lc))
                park_cnt[p] += 1
                parked += 1
        poked.extend(upq)
        self.n_parked += parked
        return freed

    def _retry_parked(
        self, t: int, poked: List[int], tel: BatchTelemetry
    ) -> List[int]:
        """Admit the oldest parked senders of the just-popped pairs.

        Each pair's parked senders form a FIFO in parking order; a pair
        that had ``k`` slots freed admits its first ``k`` (the rest keep
        their places, and every one of them counts as retried).  Taking
        these before the fresh exits is the ranking "retried senders
        first, in parking order", applied one pair at a time: the fresh
        exits of a pair then see exactly the slots the retries left.
        """
        popped, self._popped = self._popped, None
        park_q, park_cnt, p_blocked = self.park_q, self.park_cnt_py, self.p_blocked_py
        CAP, tx_ring, q_mom = self.CAP, self.tx_ring_py, self.q_mom_py
        tx_qlen, tx_head = self.tx_qlen_py, self.tx_head_py
        freed: List[int] = []
        for p in popped:
            fifo = park_q[p]
            tel.blocked_retries += len(fifo)
            qlen = tx_qlen[p]
            adm = min(CAP - qlen, len(fifo))
            if adm <= 0:
                continue
            base = p * CAP
            pos = tx_head[p] + qlen
            for i in range(adm):
                n, lc = fifo[i]
                tx_ring[base + (pos + i) % CAP] = lc
                p_blocked[n] = False
                freed.append(n)
            if adm < len(fifo):
                del fifo[:adm]
            else:
                del park_q[p]
            tx_qlen[p] = qlen + adm
            q_mom[p] += adm * t
            park_cnt[p] -= adm
            poked.append(p)
        self.n_parked -= len(freed)
        return freed

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _window_boundary(self, t: int) -> None:
        k = t // self.Wc
        # Freeze the LC hardware counters (the lockstep snapshot).
        self._flush_acct()
        occ = self.tx_qlen * t
        occ -= self.q_mom
        occ -= self.occ_base
        util = np.minimum(1.0, self.win_busy / self.Wc)
        buf_p = np.minimum(1.0, occ / (self.Wc * self.CAP))
        qe_p = self.tx_qlen == 0
        owned = self.c_owner >= 0
        bu_rc = np.where(owned, buf_p[self.c_pq], 0.0)
        qe_rc = np.where(owned, qe_p[self.c_pq], True)
        # Every live row is active — drained runs are compacted away.
        run_power = self.run_dpm & (~self.run_dbr | (k % 2 == 1))
        run_bw = self.run_dbr & (~self.run_dpm | (k % 2 == 0))
        if run_power.any():
            self._pend_dpm[t + self.power_lat] = (util, bu_rc, qe_rc, run_power)
        if run_bw.any():
            chc = np.bincount(
                self.c_pq[owned], minlength=len(self.tx_qlen)
            )
            rc_idx, new_owner = self._plan_dbr(run_bw, buf_p, qe_p, chc)
            if len(rc_idx):
                self._pend_dbr[t + self.dbr_lat] = (rc_idx, new_owner)
        # Window reset: busy time carried across the boundary seeds the
        # next window; queue-occupancy integrals restart.
        np.copyto(self.win_busy, self.win_carry)
        self.win_carry.fill(0.0)
        self.occ_base += occ

    def _plan_dbr(
        self,
        run_bw: np.ndarray,
        buf_p: np.ndarray,
        qe_p: np.ndarray,
        chc: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the real §3.2 allocator per (run, dest) on the snapshot."""
        B, W, CH = self.B, self.W, self.CH
        rcs: List[int] = []
        owners: List[int] = []
        for r in np.flatnonzero(run_bw):
            thresholds = self._policies[r].thresholds
            pq0 = r * B * B
            for d in range(B):
                states = []
                for w in range(W):
                    rc = r * CH + w * B + d
                    owner = int(self.c_owner[rc])
                    if owner < 0:
                        states.append(WavelengthState(w, None, 0.0, True, False))
                    else:
                        pq = pq0 + owner * B + d
                        states.append(
                            WavelengthState(
                                w, owner, float(buf_p[pq]), bool(qe_p[pq]), False
                            )
                        )
                demands = [
                    DestDemand(
                        s,
                        float(buf_p[pq0 + s * B + d]),
                        bool(qe_p[pq0 + s * B + d]),
                        int(chc[pq0 + s * B + d]),
                    )
                    for s in range(B)
                    if s != d
                ]
                for w, new_owner in dbr_plan(
                    d,
                    states,
                    demands,
                    thresholds,
                    self.rwa,
                    max_grants=self._policies[r].max_grants_per_dest,
                ):
                    rcs.append(r * CH + w * B + d)
                    owners.append(new_owner)
        return (
            np.array(rcs, dtype=np.int64),
            np.array(owners, dtype=np.int16),
        )

    def _apply_dpm(self, t: int, pend: Tuple[np.ndarray, ...]) -> None:
        util, bu, qe, run_power = pend
        CH = self.CH
        mask = np.repeat(run_power, CH) & (self.c_owner >= 0)
        sleep_cond = (util <= 0.0) & qe
        sleep_m = mask & sleep_cond & ~self.c_sleep
        down_m = mask & ~sleep_cond & (util < self.thr_lmin_rc) & (self.c_level > 0)
        up_m = (
            mask
            & ~sleep_cond
            & ~(util < self.thr_lmin_rc)
            & (util > self.thr_lmax_rc)
            & ((self.thr_bmax_rc <= 0.0) | (bu > self.thr_bmax_rc))
            & (self.c_level < self.L - 1)
        )
        changed = sleep_m | down_m | up_m
        if not changed.any():
            return
        runs_touched = np.unique(np.flatnonzero(changed) // CH)
        self._flush_base(runs_touched, t)
        idx = np.flatnonzero(sleep_m)
        if len(idx):
            runs = idx // CH
            # Slept channels were enabled (owned, awake): drop their draw.
            np.add.at(self.base_A, runs, -self.P_mw[self.c_level[idx]])
            self.c_sleep[idx] = True
            np.add.at(self.sleeps, runs, 1)
        for m, delta in ((down_m, -1), (up_m, +1)):
            idx = np.flatnonzero(m)
            if not len(idx):
                continue
            runs = idx // CH
            old = self.c_level[idx].astype(np.int64)
            new = old + delta
            awake = ~self.c_sleep[idx]
            np.add.at(
                self.base_A,
                runs[awake],
                self.P_mw[new[awake]] - self.P_mw[old[awake]],
            )
            self.c_level[idx] = new.astype(np.int8)
            self.c_stall[idx] = np.maximum(self.c_stall[idx], t + self.step_stall)
            np.add.at(self.dpm_transitions, runs, 1)

    def _apply_dbr(
        self, t: int, pend: Tuple[np.ndarray, np.ndarray]
    ) -> List[int]:
        """Apply a pending grant plan; returns the granted channel ids.

        Pending plans are remapped (and emptied entries dropped) when runs
        compact out, so every entry here targets a live channel.
        """
        rc_idx, new_owner = pend
        if not len(rc_idx):
            return []
        CH, B = self.CH, self.B
        runs = rc_idx // CH
        self._flush_base(np.unique(runs), t)
        owner_before = self.c_owner[rc_idx]
        enabled_before = (owner_before >= 0) & ~self.c_sleep[rc_idx]
        lit = ~enabled_before
        np.add.at(self.base_A, runs[lit], self.P_mw[self.c_level[rc_idx[lit]]])
        old_pq = self.c_pq[rc_idx]
        self.c_owner[rc_idx] = new_owner
        self.c_sleep[rc_idx] = False
        dests = rc_idx % B
        new_pq = (runs * B + new_owner.astype(np.int64)) * B + dests
        self.c_pq[rc_idx] = new_pq
        np.add.at(self.grants, runs, 1)
        # Maintain the pair -> channels reverse index (grant plans are
        # small, so a python loop is fine here).
        pair_ch, pair_nch = self.pair_ch, self.pair_nch
        granted = rc_idx.tolist()
        for rc, was, po, pn in zip(
            granted, owner_before.tolist(), old_pq.tolist(), new_pq.tolist()
        ):
            if was >= 0:
                row = pair_ch[po]
                k = self.pair_nch[po]
                for j in range(k):
                    if row[j] == rc:
                        row[j] = row[k - 1]
                        row[k - 1] = -1
                        break
                pair_nch[po] = k - 1
            row = pair_ch[pn]
            row[pair_nch[pn]] = rc
            pair_nch[pn] += 1
        return granted

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------
    def run(self) -> List[RunResult]:
        """Advance the slab and return one :class:`RunResult` per run.

        Delegates to :meth:`run_payload` + :func:`decode_payload` so the
        in-process path and the cross-process (worker shard) path share a
        single results pipeline.
        """
        return decode_payload(self.run_payload(), self.runs)

    def run_payload(self) -> BatchResultPayload:
        """Advance the slab and return the compact payload.

        Every phase is event-driven: the only indices examined each cycle
        are the ones carried by the event rings (injections, port exits,
        service ends) plus the parked senders of just-popped pairs, so
        per-cycle cost scales with actual activity, not with slab size.
        The phases walk those indices one element at a time, over plain
        int lists and the ``_py`` element views (:data:`_SHARED`), so a
        cycle with a few events pays for a few events.
        The loop simulates only what decides future events; receive ports
        and dispatch accounting are logged and reduced on the ``chunk``
        grid and wherever a counter is read (:meth:`_flush_logs`).  With
        ``time_skip`` (the default) the loop additionally jumps over
        cycles that provably execute no event — see
        :func:`repro.core.skip.next_event_time`, which reads the next
        occupied ring slot off a heap of absolute cycles — so wall-clock
        cost scales with events executed, not cycles simulated.  Runs that
        drain mid-slab are compacted away (:meth:`_compact`), never
        re-masked.  None of these mechanisms changes a result bit:
        ``tests/test_core_batch.py`` compares ``time_skip=True`` against
        ``time_skip=False`` payload bytes and pins payload digests,
        work counters and dispatch candidates recorded before the loop
        was restructured.
        """
        SEND = self.SEND
        N, D, BB = self.N, self.D, self.B * self.B
        me, he, Wc, chunk = self.me, self.he, self.Wc, self.chunk
        arr_w = self.recv.horizon
        recv_scalar = self.recv.scalar
        started_py, injcnt_py = self.p_started_py, self.p_injcnt_py
        busy_py, blocked_py = self.p_busy_py, self.p_blocked_py
        off_py = self.p_off_py
        ring_pexit, ring_cend = self.ring_pexit, self.ring_cend
        ring_occ, heap = self.ring_occ, self._ring_heap
        push = self._push_pairs
        lockstep = self.lockstep_on
        time_skip = self.time_skip
        pend_dpm, pend_dbr = self._pend_dpm, self._pend_dbr
        tel = BatchTelemetry(horizon=he + 1)
        self.telemetry = tel
        flush_at = chunk
        # The injection cursor: ``next_inj`` is the first injection cycle
        # not yet reached (``he + 1`` past the last), read off element
        # views of the CSR index; t only grows, so no search is needed.
        inj_at, off_at = memoryview(self.inj_cycles), memoryview(self.evt_off)
        n_ic, ic = len(inj_at), 0
        next_inj = inj_at[0] if n_ic else he + 1
        rn_at, route_at = memoryview(self.evt_rn), memoryview(self.flat_route)
        t = 0
        while t <= he:
            tel.cycles_executed += 1
            slot_i = t % _RING
            ring_occ[slot_i] = 0
            while heap and heap[0] <= t:
                heappop(heap)
            send_cand: List[int] = []
            disp_cand = ring_cend[slot_i]
            poked: List[int] = []
            # (0) Control plane: window boundaries and pending applies.
            if lockstep:
                if t and t % Wc == 0:
                    self._window_boundary(t)
                    tel.window_boundaries += 1
                if pend_dpm:
                    pend = pend_dpm.pop(t, None)
                    if pend is not None:
                        self._apply_dpm(t, pend)
                if pend_dbr:
                    pend2 = pend_dbr.pop(t, None)
                    if pend2 is not None:
                        disp_cand.extend(self._apply_dbr(t, pend2))
            # (1) Injections arriving this cycle.  Nodes that are busy or
            # blocked are dropped from the start candidates here: if they
            # exit or unblock this same cycle, those phases re-add them,
            # which keeps the start candidates distinct (no dedup needed).
            if t == next_inj:
                ic += 1
                next_inj = inj_at[ic] if ic < n_ic else he + 1
                lo = off_at[t]
                hi = off_at[t + 1]
                tel.injections += hi - lo
                for rn in rn_at[lo:hi]:
                    injcnt_py[rn] += 1
                    if not (busy_py[rn] or blocked_py[rn]):
                        send_cand.append(rn)
            # (2) Send-port exits follow their packet's precomputed route:
            # same-board packets are handed to the destination's receive
            # port (logged, this cycle), the rest compete for their pair
            # queue.
            rem_rn: List[int] = []
            rem_pq: List[int] = []
            rem_loc: List[int] = []
            ex = ring_pexit[slot_i]
            if ex is not None:
                ring_pexit[slot_i] = None
                tel.port_exits += len(ex)
                send_cand.extend(ex)
                n_local = 0
                for rn in ex:
                    busy_py[rn] = False
                    route = route_at[off_py[rn] + started_py[rn] - 1]
                    if route < 0:
                        recv_scalar.append((rn // N * N - 1 - route) * arr_w + t)
                        n_local += 1
                    else:
                        rem_rn.append(rn)
                        rem_pq.append(route // D + rn // N * BB)
                        rem_loc.append(route % D)
                self._local_logged += n_local
            # (3) Ranked push: parked senders of the pairs popped on the
            # previous executed cycle retry ahead of the fresh exits.
            if rem_rn or self._popped is not None:
                send_cand.extend(push(rem_pq, rem_loc, rem_rn, t, poked, tel))
            # (4) Send-port starts (same-cycle turnaround): candidates are
            # exactly the nodes whose state changed this cycle.
            if send_cand:
                idx: List[int] = []
                for rn in send_cand:
                    if not (busy_py[rn] or blocked_py[rn]) and (
                        injcnt_py[rn] > started_py[rn]
                    ):
                        busy_py[rn] = True
                        started_py[rn] += 1
                        idx.append(rn)
                if idx:
                    s = t + SEND
                    s_i = s % _RING
                    ring_pexit[s_i] = idx
                    if not ring_occ[s_i]:
                        heappush(heap, s)
                    ring_occ[s_i] += 1
            # (5) Channel dispatch: channels whose service just ended, plus
            # the parked channels of pairs that were pushed to (a pushed
            # pair's other idle channels are among the former, see
            # _build_state), plus fresh grants.
            if poked:
                W, pair_ch, pair_nch = self.W, self.pair_ch_py, self.pair_nch_py
                parked = self.c_parked_py
                disp_cand.extend(
                    rc
                    for pq in poked
                    for rc in pair_ch[pq * W : pq * W + pair_nch[pq]]
                    if parked[rc]
                )
            if disp_cand:
                self._dispatch(t, disp_cand, tel)
                disp_cand.clear()
            # (6) Reduce the logs on the chunk grid (bounds their size) and
            # at every drain check, which reads the delivery counters on
            # the scalar engine's chunk grid; drained runs are compacted
            # out of the live state entirely.
            drain = t >= me and (t - me) % chunk == 0
            if drain or t >= flush_at:
                self._flush_logs(t, tel)
                flush_at = (t // chunk + 1) * chunk
            if drain:
                tel.drain_checks += 1
                done = self.lab_del == self.lab_inj
                if done.any():
                    # Drop the loop's views of the old CSR, so _compact
                    # frees it as soon as the rebuilt one exists.
                    inj_at = off_at = rn_at = route_at = memoryview(_NO_IDX)
                    self._compact(done, t)
                    tel.compactions += 1
                    if self.R == 0:
                        break
                    started_py, injcnt_py = self.p_started_py, self.p_injcnt_py
                    busy_py, blocked_py = self.p_busy_py, self.p_blocked_py
                    off_py = self.p_off_py
                    lockstep = self.lockstep_on
                    # The rebuilt CSR holds no cycle <= t.
                    inj_at, off_at = memoryview(self.inj_cycles), memoryview(self.evt_off)
                    n_ic, ic = len(inj_at), 0
                    next_inj = inj_at[0] if n_ic else he + 1
                    rn_at, route_at = memoryview(self.evt_rn), memoryview(self.flat_route)
            # Advance: one grid cycle in always-step mode, or jump to the
            # next cycle that can observably do something.  The three
            # mandatory-stop conditions that fire on nearly every busy
            # cycle (a popped pair with parked senders, which retry on the
            # next cycle; an occupied ring slot at t+1; an injection at
            # t+1) are checked inline so the full next-event computation
            # only runs when a jump is actually possible.
            if time_skip:
                if (
                    self._popped is not None
                    or ring_occ[(t + 1) % _RING]
                    or next_inj == t + 1
                ):
                    t += 1
                else:
                    pend_min = None
                    if lockstep and (pend_dpm or pend_dbr):
                        pend_min = min(
                            min(pend_dpm, default=he + 1),
                            min(pend_dbr, default=he + 1),
                        )
                    t2 = next_event_time(
                        t, he, ring_occ, heap, next_inj, lockstep, Wc,
                        me, chunk, pend_min,
                    )
                    tel.cycles_skipped += t2 - t - 1
                    t = t2
            else:
                t += 1
        self._flush_logs(he, tel)
        self._flush_base(np.arange(self.R, dtype=np.int64), he)
        return self._payload()

    def _dispatch(self, t: int, cand: List[int], tel: BatchTelemetry) -> None:
        """Serve the candidate channels (possibly repeated) at ``t``.

        Counts the candidates and the packets taken off pair queues in
        ``tel``, and leaves the popped pairs that have parked senders in
        ``self._popped``: those senders retry on the next cycle (a freed
        queue slot admits a blocked sender on the following cycle), which
        is also the one blocked-sender condition that stops the time-skip
        loop at ``t + 1``.  What a dispatch contributes to the energy and
        utilisation integrals and when its packet reaches the receive
        port are appended to the accounting and arrival logs.

        Channels are served in ascending id order, which within a pair is
        ascending wavelength order, each taking the head of its pair's
        queue while the queue lasts; an idle channel that finds its queue
        empty parks (``c_parked``) until a push to its pair wakes it.
        """
        tel.dispatch_candidates += len(cand)
        (
            c_busy_until, c_pq, c_level, c_sleep, c_stall, c_parked,
            tx_qlen, tx_head, tx_ring, q_mom, pair_arr,
        ) = self._dispatch_views
        park_cnt = self.park_cnt_py if self.n_parked else None
        CAP, CH = self.CAP, self.CH
        svc, WAKE = self.svc_py, self.WAKE
        horizon, arrivals = self.recv.horizon, self.recv.scalar
        acct = self._acct.scalar
        ring_cend, ring_occ, heap = self.ring_cend, self.ring_occ, self._ring_heap
        ceil = math.ceil
        popped: List[int] = []
        served = 0
        prev = -1
        for rc in sorted(cand):
            if rc == prev:
                continue
            prev = rc
            if c_busy_until[rc] > t:
                continue
            pq = c_pq[rc]
            qlen = tx_qlen[pq]
            if qlen <= 0:
                c_parked[rc] = True
                continue
            c_parked[rc] = False
            head = tx_head[pq]
            loc = tx_ring[pq * CAP + head % CAP]
            q_mom[pq] -= t
            tx_qlen[pq] = qlen - 1
            tx_head[pq] = (head + 1) % CAP
            if park_cnt is not None and park_cnt[pq]:
                popped.append(pq)
            lvl = c_level[rc]
            slp = c_sleep[rc]
            if slp:
                # Wake a DPM-slept laser: the packet pays wake_cycles, the
                # laser draws idle power from now on.
                run = rc // CH
                ovb = max(min(t, self.me) - max(self.base_last.item(run), self.wu), 0.0)
                self.base_E[run] += self.base_A.item(run) * ovb
                self.base_last[run] = t
                self.base_A[run] += self.P_mw.item(lvl)
                c_sleep[rc] = False
            start = float(max(t + WAKE * slp, c_stall[rc]))
            end = start + svc[lvl]
            c_busy_until[rc] = end
            acct.extend((t, rc, start, end, lvl))
            # The packet reaches its receive port after fiber + destination
            # pipeline; the channel may re-dispatch at its completion cycle.
            end_i = ceil(end)
            arrivals.append(pair_arr[pq] + loc * horizon + end_i)
            s1 = end_i % _RING
            slot = ring_cend[s1]
            if not slot:
                if not ring_occ[s1]:
                    heappush(heap, end_i)
                ring_occ[s1] += 1
            slot.append(rc)
            served += 1
        tel.dispatches += served
        if popped:
            self._popped = sorted(set(popped))
        if len(acct) >= _SEAL_FLOATS:
            # Pack the records (and the arrival keys) logged since the
            # last seal as arrays: 8 bytes a value instead of a boxed one.
            self._acct.seal()
            self.recv.seal()

    def _scatter(self, rows: np.ndarray) -> None:
        """Write these live rows' final metrics at their original slots.

        The per-run arithmetic (labeled-latency FIFO proxy, energy /
        measure-window division) happens here, on the producer side, with
        the exact scalar expressions the engine always used — the decoder
        only unpacks, so where a payload is produced never affects the
        bits of the results.
        """
        if not len(rows):
            return
        o = self.orig[rows]
        self.out_delivered[o] = self.delivered_measure[rows]
        self.out_inj[o] = self.inj_measure[rows]
        self.out_lab_inj[o] = self.lab_inj[rows]
        self.out_lab_del[o] = self.lab_del[rows]
        self.out_grants[o] = self.grants[rows]
        self.out_dpm[o] = self.dpm_transitions[rows]
        self.out_sleeps[o] = self.sleeps[rows]
        self.out_power[o] = (
            self.idle_frac * self.base_E[rows]
            + (1.0 - self.idle_frac) * self.busy_E[rows]
        ) / self.measure
        owned = (self.c_owner >= 0).reshape(self.R, self.CH)
        self.out_lasers[o] = np.count_nonzero(owned[rows], axis=1)
        for i, r in zip(o.tolist(), rows.tolist()):
            lab_del = int(self.lab_del[r])
            if lab_del > 0:
                self.out_avg_lat[i] = float(
                    (self.sum_del_t[r] - self.lab_prefix[r][lab_del]) / lab_del
                )

    def _compact(self, done: np.ndarray, t: int) -> None:
        """Remove drained runs from the live state (order-preserving).

        Scatters their final metrics into the original-index output
        arrays, then compacts every run/node/pair/channel array and remaps
        every stored index (ring events, parked senders, carried receive
        arrivals/completions, injection CSR, channel<->pair
        cross-references, pending control-plane plans).  The caller has
        just reduced both logs (:meth:`_flush_logs`), so the counters
        scattered here are current and no accounting record is pending.
        The remap preserves relative order, so every later stable sort
        produces the same permutation of the surviving rows — compaction
        is bit-invisible to the results.
        """
        R, N, B, CH, CAP = self.R, self.N, self.B, self.CH, self.CAP
        BB = B * B
        frozen = np.flatnonzero(done)
        self._flush_base(frozen, t)
        self._scatter(frozen)
        keep_r = ~done
        R2 = int(np.count_nonzero(keep_r))
        self.orig = self.orig[keep_r]
        new_of_old = np.cumsum(keep_r, dtype=np.int64) - 1
        for name in (
            "inj_measure", "pre_wu_inj", "lab_inj", "delivered_total",
            "delivered_measure", "lab_del", "sum_del_t", "base_A",
            "base_last", "base_E", "busy_E", "grants", "dpm_transitions",
            "sleeps", "run_dpm", "run_dbr",
        ):
            setattr(self, name, getattr(self, name)[keep_r])
        keep_list = keep_r.tolist()
        self.lab_prefix = [p for p, k in zip(self.lab_prefix, keep_list) if k]
        self._policies = [p for p, k in zip(self._policies, keep_list) if k]
        self._workloads = [w for w, k in zip(self._workloads, keep_list) if k]
        # Node-major arrays (parked senders name their pair) and the
        # receive log's carried state.
        keep_n = np.repeat(keep_r, N)
        for name in ("p_injcnt", "p_started", "p_busy", "p_blocked"):
            setattr(self, name, getattr(self, name)[keep_n])
        # A parked sender waits on a pair of its own run: both move down
        # by the removed runs before it.
        park_q: Dict[int, List[Tuple[int, int]]] = {}
        for p in sorted(self.park_q):
            r = p // BB
            if keep_list[r]:
                r2 = int(new_of_old[r])
                shift = (r - r2) * N
                park_q[r2 * BB + p % BB] = [
                    (n - shift, lc) for n, lc in self.park_q[p]
                ]
        self.park_q = park_q
        self.recv.compact(keep_r)
        # Pair-major arrays (tx_ring is CAP-wide per pair), the pairs
        # awaiting a retry, and the pair -> channels reverse index
        # (values are channel ids).
        keep_pq = np.repeat(keep_r, BB)
        for name in (
            "tx_head", "tx_qlen", "q_mom", "occ_base", "pair_nch", "park_cnt",
        ):
            setattr(self, name, getattr(self, name)[keep_pq])
        self.pair_arr = self.pair_arr[: R2 * BB]
        self.n_parked = int(self.park_cnt.sum())
        if self._popped is not None:
            pp = [p for p in self._popped if keep_pq[p]]
            self._popped = [
                int(new_of_old[p // BB]) * BB + p % BB for p in pp
            ] or None
        self.tx_ring = self.tx_ring.reshape(R, BB * CAP)[keep_r].ravel()
        pc = self.pair_ch[keep_pq]
        pos = pc >= 0
        v = pc[pos]
        pc[pos] = new_of_old[v // CH] * CH + v % CH
        self.pair_ch = pc
        # Channel-major arrays and the channel -> pair index.
        keep_rc = np.repeat(keep_r, CH)
        for name in (
            "c_owner", "c_level", "c_sleep", "c_stall", "c_busy_until",
            "win_busy", "win_carry", "thr_lmin_rc", "thr_lmax_rc",
            "thr_bmax_rc",
        ):
            setattr(self, name, getattr(self, name)[keep_rc])
        self.c_parked = np.append(self.c_parked[:-1][keep_rc], False)
        cpq = self.c_pq[keep_rc]
        cpq = new_of_old[cpq // BB] * BB + cpq % BB
        # Unowned channels keep the placeholder pair 0 (never read).
        cpq[self.c_owner < 0] = 0
        self.c_pq = cpq
        self._compact_csr(keep_n, new_of_old, t)
        # Routes: the kept run-nodes keep their offsets into the shared
        # tables, which stay as they are (a removed run's routes are not
        # worth a copy of the kept ones).
        self.p_off = self.p_off[keep_n]
        # Event rings: filter each slot's ids, remap, recount occupancy.
        def remap(ids: List[int], div: int, keep_i: np.ndarray) -> List[int]:
            arr = np.array(ids, dtype=np.int64)
            arr = arr[keep_i[arr]]
            return (new_of_old[arr // div] * div + arr % div).tolist()

        ring_occ = self.ring_occ
        ring_occ[:] = [0] * _RING
        for s, ids in enumerate(self.ring_pexit):
            if ids is not None:
                self.ring_pexit[s] = ids = remap(ids, N, keep_n) or None
                if ids is not None:
                    ring_occ[s] += 1
        for s, ids in enumerate(self.ring_cend):
            if ids:
                ids[:] = remap(ids, CH, keep_rc)
                if ids:
                    ring_occ[s] += 1
        # Pending control-plane plans: snapshots shrink with the state.
        for key in list(self._pend_dpm):
            util, bu, qe, run_power = self._pend_dpm[key]
            self._pend_dpm[key] = (
                util[keep_rc], bu[keep_rc], qe[keep_rc], run_power[keep_r]
            )
        for key in list(self._pend_dbr):
            rc_idx, new_owner = self._pend_dbr[key]
            m = keep_rc[rc_idx]
            rc_idx, new_owner = rc_idx[m], new_owner[m]
            if len(rc_idx):
                rc_idx = new_of_old[rc_idx // CH] * CH + rc_idx % CH
                self._pend_dbr[key] = (rc_idx, new_owner)
            else:
                del self._pend_dbr[key]
        self.R = R2
        self._share()
        self.lockstep_on = bool((self.run_dpm | self.run_dbr).any())
        if not self.lockstep_on:
            # No surviving run is power-aware: any leftover pending plan
            # could only have touched removed runs (a provable no-op), so
            # drop it rather than have the skip loop stop for it.
            self._pend_dpm.clear()
            self._pend_dbr.clear()

    def _compact_csr(
        self, keep_n: np.ndarray, new_of_old: np.ndarray, t: int
    ) -> None:
        """Rebuild the injection CSR for :meth:`_compact` from the events
        after cycle ``t`` alone: the loop never reads an earlier cycle
        again, so consumed events are dropped with the removed nodes'
        ones, and every cycle ``<= t`` is left empty.  The offsets are
        rewritten in place from per-cycle survivor counts, so the only
        transient as long as the events is the suffix's keep mask (1 B
        per event; survivor positions would take 8)."""
        off = self.evt_off
        lo = int(off[t + 1])
        suffix = self.evt_rn[lo:]
        keep = keep_n[suffix]
        # Only injection cycles after t can still hold an event; each
        # holds at least one, so reduceat sums exactly its own events.
        # It widens its input to the sum's type, so it takes a block of
        # cycles at a time.
        ic = self.inj_cycles
        ic = ic[np.searchsorted(ic, t, side="right") :]
        starts = off[ic] - lo
        kept = np.empty(len(ic), dtype=np.int64)
        for a in range(0, len(ic), _COUNT_BLOCK):
            b = a + _COUNT_BLOCK
            end = starts[b] if b < len(ic) else len(keep)
            kept[a:b] = np.add.reduceat(
                keep[starts[a] : end], starts[a:b] - starts[a], dtype=np.int64
            )
        off[:] = 0
        off[ic + 1] = kept
        np.cumsum(off, out=off)
        self.inj_cycles = ic[kept > 0]
        del ic, starts, kept
        rn = self.evt_rn = suffix[keep]
        del suffix, keep
        # Renumber in place: a run's nodes move down by N for each
        # removed run before it.
        N = self.N
        shift = np.arange(len(new_of_old)) - new_of_old
        shift = (shift * N).astype(rn.dtype)
        run = rn // N
        np.take(shift, run, out=run)
        rn -= run

    # ------------------------------------------------------------------
    def _payload(self) -> BatchResultPayload:
        """Package the original-index output arrays as the transport.

        Runs that drained mid-slab were scattered at compaction time;
        this scatters whatever is still live, so the payload always spans
        the engine's original run list regardless of how many compactions
        happened along the way.
        """
        self._scatter(np.arange(self.R, dtype=np.int64))
        return BatchResultPayload(
            delivered_measure=self.out_delivered,
            inj_measure=self.out_inj,
            lab_inj=self.out_lab_inj,
            lab_del=self.out_lab_del,
            avg_latency=self.out_avg_lat,
            power_mw=self.out_power,
            grants=self.out_grants,
            dpm_transitions=self.out_dpm,
            sleeps=self.out_sleeps,
            lasers_on_final=self.out_lasers,
        )
