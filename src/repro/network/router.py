"""Cycle-accurate virtual-channel router.

Implements the SGI-Spider-style pipeline from Table 1 of the paper
(per-packet: route computation RC, VC allocation VA; per-flit: switch
allocation SA, switch traversal ST — one cycle each), with credit-based
flow control and round-robin separable allocation.

The router has no clock of its own: the fabric's clock loop
(:class:`repro.network.fabric.Fabric`) calls :meth:`VCRouter.tick` once
per integer cycle, skipping routers whose input VCs are all idle
(``busy_vcs == 0`` — an idle cycle is a provable no-op: every stage
works only on non-IDLE VCs, and an all-``False`` request mask never
advances an arbiter pointer).  Delayed credit returns join the fabric's
credit due-queue.  Pipeline stages execute in *reverse* order (ST, SA,
VA, RC) within a cycle so a flit advances at most one stage per cycle,
giving the 4-cycle zero-load pipeline latency the paper's router model
has.

Each stage works from a worklist kept in step with the VC state
machine, so a cycle costs in proportion to the live VCs, not to the
router's ``n_ports x n_vcs``: RC drains the VCs that entered ROUTING, VA
visits the WAITING_VC requesters grouped by output port, and SA/ST visits
the ACTIVE VCs.  Each list is kept in the order a full scan would meet
its entries, and the arbiters grant from ascending requester ids what
they would grant on the full request mask, in the same sequence
(DESIGN.md §6).

The per-VC state is flat: input VC ``port * n_vcs + vc`` owns one entry of
each of ``bufs`` (its flit FIFO), ``status``, ``route`` (output port) and
``grant`` (flat output VC), and output VC ``port * n_vcs + vc`` one entry
of ``credits`` and ``owner``.  A flit's hop is list reads and writes, not
method calls on per-VC objects; each flow-control violation (buffer
overflow, credit underflow or overflow) stays one comparison.  It is the
state machine of :class:`~repro.network.vc.InputVC` and
:class:`~repro.network.vc.OutputVC`, the checked objects the frozen
process-driven oracle builds its router from.

This detailed model backs the E-RAPID *detailed engine* and the substrate
tests; the full evaluation sweeps use the event-driven fast engine, which is
cross-validated against this router (see ``tests/test_cross_validation.py``).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.network.arbiters import RoundRobinArbiter
from repro.network.channel import Channel
from repro.network.credit import CreditReturn
from repro.network.packet import Flit
from repro.network.vc import VCStatus
from repro.sim.cycle import DueQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["VCRouter"]

#: Routing function: (router, destination node id) -> output port index.
RoutingFn = Callable[["VCRouter", int], int]

_IDLE = VCStatus.IDLE
_ROUTING = VCStatus.ROUTING
_WAITING_VC = VCStatus.WAITING_VC
_ACTIVE = VCStatus.ACTIVE


class VCRouter:
    """An input-queued virtual-channel router.

    Parameters
    ----------
    n_ports:
        Number of (input, output) port pairs.
    n_vcs:
        Virtual channels per input port.
    buf_depth:
        Flit buffer depth per VC (Table 1 uses single-flit buffers).
    routing_fn:
        Maps a destination node id to an output port of this router.
    credit_ring:
        The fabric's credit due-queue; upstream credit returns join it
        and the fabric's tick applies them when they come due.
    credit_latency:
        Cycles (>= 1) for a credit to return upstream (Table 1: one cycle).
    """

    __slots__ = (
        "sim", "n_ports", "n_vcs", "buf_depth", "routing_fn",
        "credit_latency", "name", "channels", "credit_returns", "credit_ring",
        "bufs", "status", "route", "grant", "credits", "owner",
        "_va_arbiters", "_sa_input", "_sa_output", "flits_routed",
        "packets_routed", "busy_vcs", "_rc_pending", "_va_waiting",
        "_va_dirty", "_active",
    )

    def __init__(
        self,
        sim: "Simulator",
        n_ports: int,
        routing_fn: RoutingFn,
        credit_ring: DueQueue[CreditReturn],
        n_vcs: int = 2,
        buf_depth: int = 1,
        credit_latency: int = 1,
        name: str = "router",
    ) -> None:
        if n_ports < 1 or n_vcs < 1:
            raise ConfigurationError("router needs >= 1 port and >= 1 VC")
        if buf_depth < 1:
            raise ConfigurationError(f"router buffers need depth >= 1, got {buf_depth}")
        if credit_latency < 1:
            raise ConfigurationError(
                f"credit latency must be >= 1 cycle, got {credit_latency}"
            )
        self.sim = sim
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        self.buf_depth = buf_depth
        self.routing_fn = routing_fn
        self.credit_latency = credit_latency
        self.name = name

        n = n_ports * n_vcs
        # Input VCs, by flat id ``port * n_vcs + vc``:
        #: the buffered flits, oldest first (at most ``buf_depth``);
        self.bufs: List[Deque[Flit]] = [deque() for _ in range(n)]
        #: the VC's state (IDLE -> ROUTING -> WAITING_VC -> ACTIVE);
        self.status: List[VCStatus] = [_IDLE] * n
        #: the output port RC chose (-1 before RC);
        self.route: List[int] = [-1] * n
        #: the flat id of the output VC VA granted (-1 before VA).
        self.grant: List[int] = [-1] * n
        # Output VCs, by flat id ``port * n_vcs + vc``:
        #: credits in hand, mirroring the downstream buffer's free slots;
        self.credits: List[int] = [buf_depth] * n
        #: the flat id of the input VC holding it, or -1 when free.
        self.owner: List[int] = [-1] * n
        self.channels: List[Optional[Channel]] = [None] * n_ports
        #: Per input port: callback(vc) that restores one upstream credit.
        self.credit_returns: List[Optional[Callable[[int], None]]] = [None] * n_ports
        self.credit_ring = credit_ring

        self._va_arbiters = [
            [RoundRobinArbiter(n) for _ in range(n_vcs)] for _ in range(n_ports)
        ]
        self._sa_input = [RoundRobinArbiter(n_vcs) for _ in range(n_ports)]
        self._sa_output = [RoundRobinArbiter(n_ports) for _ in range(n_ports)]

        self.flits_routed = 0
        self.packets_routed = 0
        #: Input VCs currently carrying a packet; 0 means a tick is a no-op.
        self.busy_vcs = 0
        # The stages' worklists, each in step with ``status``:
        #: flat ids of the VCs in ROUTING;
        self._rc_pending: List[int] = []
        #: output port -> flat ids (ascending) of the WAITING_VC VCs routed to it;
        self._va_waiting: Dict[int, List[int]] = {}
        #: a requester joined or an output VC freed since the last VA pass
        #: (without either, a pass finds every requested output VC owned);
        self._va_dirty = False
        #: flat ids (ascending) of the ACTIVE VCs.
        self._active: List[int] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_output(self, port: int, channel: Channel) -> None:
        """Connect ``channel`` downstream of output ``port``."""
        self.channels[port] = channel

    def set_credit_return(self, port: int, fn: Callable[[int], None]) -> None:
        """Install the upstream credit-restore callback for input ``port``."""
        self.credit_returns[port] = fn

    # ------------------------------------------------------------------
    # Flit/credit ingress
    # ------------------------------------------------------------------
    def receive_flit(self, flit: Flit, port: int) -> None:
        """Channel delivery callback: buffer an incoming flit."""
        vc = flit.vc
        if vc is None:
            raise SimulationError(f"flit {flit!r} arrived without a VC assignment")
        flat = port * self.n_vcs + vc
        buf = self.bufs[flat]
        if len(buf) >= self.buf_depth:
            raise SimulationError(
                f"{self.name!r} input {port} VC {vc} buffer overflow (capacity "
                f"{self.buf_depth}); credit-based flow control was violated"
            )
        buf.append(flit)
        # Start the packet only when the VC is idle; a head that queues
        # behind an in-flight packet is started when that packet's tail
        # departs (see _traverse).
        if flit.is_head and self.status[flat] is _IDLE:
            self.status[flat] = _ROUTING
            self._rc_pending.append(flat)
            self.busy_vcs += 1

    def restore_credit(self, port: int, vc: int) -> None:
        """Downstream freed a slot on output ``port``/``vc``."""
        out = port * self.n_vcs + vc
        credits = self.credits
        if credits[out] >= self.buf_depth:
            raise SimulationError(
                f"{self.name!r} output {port} VC {vc} credit overflow: restore "
                f"past initial count {self.buf_depth}"
            )
        credits[out] += 1

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance the pipeline one cycle (ST/SA, then VA, then RC).

        The fabric calls this on integer cycles ``now``, skipping routers
        with ``busy_vcs == 0``.  A stage with an empty worklist is skipped,
        and so is a VA pass that can find no free output VC: either would
        grant nothing and move no arbiter pointer.
        """
        if self._active:
            self._stage_st_sa(now)
        if self._va_dirty:
            self._stage_va()
        if self._rc_pending:
            self._stage_rc()

    def _stage_rc(self) -> None:
        """Route computation for the VCs that entered ROUTING."""
        pending = self._rc_pending
        # Heads arrive in delivery order; route in the (port, VC) order.
        pending.sort()
        bufs = self.bufs
        status = self.status
        route = self.route
        waiting = self._va_waiting
        routing_fn = self.routing_fn
        n_ports = self.n_ports
        for flat in pending:
            dst = bufs[flat][0].packet.dst
            out = routing_fn(self, dst)
            if not 0 <= out < n_ports:
                raise ConfigurationError(
                    f"routing_fn returned invalid port {out} "
                    f"for dst {dst} at {self.name!r}"
                )
            route[flat] = out
            status[flat] = _WAITING_VC
            requesters = waiting.get(out)
            if requesters is None:
                waiting[out] = [flat]
            else:
                insort(requesters, flat)
        pending.clear()
        self._va_dirty = True

    def _stage_va(self) -> None:
        """VC allocation: WAITING_VC inputs compete for free output VCs.

        Output ports with requesters arbitrate in ascending order, each
        over its output VCs in ascending order, among the port's
        still-waiting requesters — the arbitration sequence of a full
        scan, so every grant and arbiter pointer is unchanged.
        """
        self._va_dirty = False
        waiting = self._va_waiting
        n_vcs = self.n_vcs
        status = self.status
        grant = self.grant
        owner = self.owner
        active = self._active
        for out_port in sorted(waiting):
            requesters = waiting[out_port]
            arbiters = self._va_arbiters[out_port]
            base = out_port * n_vcs
            for out_vc in range(n_vcs):
                out = base + out_vc
                if owner[out] >= 0:
                    continue
                winner = arbiters[out_vc].grant(requesters)
                requesters.remove(winner)
                owner[out] = winner
                grant[winner] = out
                status[winner] = _ACTIVE
                insort(active, winner)
                if not requesters:
                    del waiting[out_port]
                    break

    def _stage_st_sa(self, now: float) -> None:
        """Switch allocation + traversal for ACTIVE VCs with flits/credits."""
        # Stage 1: the ready VCs — a flit buffered, a credit for it and a
        # free wire — grouped by input port, in ascending (port, VC) order.
        bufs = self.bufs
        route = self.route
        grant = self.grant
        credits = self.credits
        channels = self.channels
        n_vcs = self.n_vcs
        ready: Dict[int, List[int]] = {}
        for flat in self._active:
            if not bufs[flat] or credits[grant[flat]] <= 0:
                continue
            channel = channels[route[flat]]
            if channel is None or channel.busy_until > now:
                continue
            port, vc = divmod(flat, n_vcs)
            vcs = ready.get(port)
            if vcs is None:
                ready[port] = [vc]
            else:
                vcs.append(vc)
        if not ready:
            # No request anywhere: no grant, every pointer stays put.
            return
        # Each input port with a ready VC nominates one; nominations per
        # output port keep the ascending input order.
        sa_input = self._sa_input
        chosen: Dict[int, int] = {}
        nominations: Dict[int, List[int]] = {}
        for in_port, vcs in ready.items():
            pick = sa_input[in_port].grant(vcs)
            chosen[in_port] = pick
            out_port = route[in_port * n_vcs + pick]
            inputs = nominations.get(out_port)
            if inputs is None:
                nominations[out_port] = [in_port]
            else:
                inputs.append(in_port)
        # Stage 2: each output port grants one input; traverse.
        sa_output = self._sa_output
        for out_port, inputs in nominations.items():
            winner = sa_output[out_port].grant(inputs)
            self._traverse(winner, chosen[winner], now)

    def _traverse(self, in_port: int, in_vc: int, now: float) -> None:
        n_vcs = self.n_vcs
        flat = in_port * n_vcs + in_vc
        buf = self.bufs[flat]
        flit = buf.popleft()
        out = self.grant[flat]
        out_port = self.route[flat]
        flit.vc = out - out_port * n_vcs
        credits = self.credits
        left = credits[out]
        if left <= 0:
            raise SimulationError(
                f"{self.name!r} output {out_port} consumed a credit while at zero"
            )
        credits[out] = left - 1
        channel = self.channels[out_port]
        assert channel is not None
        channel.send(flit)
        self.flits_routed += 1
        # Return a credit upstream for the freed input slot.
        ret = self.credit_returns[in_port]
        if ret is not None:
            self.credit_ring.push(now + self.credit_latency, (ret, in_vc))
        if flit.is_tail:
            self.packets_routed += 1
            self.owner[out] = -1
            self._va_dirty = True
            self.route[flat] = -1
            self.grant[flat] = -1
            self._active.remove(flat)
            # A queued head from the next packet may already be buffered.
            if buf and buf[0].is_head:
                self.status[flat] = _ROUTING
                self._rc_pending.append(flat)
            else:
                self.status[flat] = _IDLE
                self.busy_vcs -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCRouter {self.name!r} {self.n_ports}p x {self.n_vcs}vc>"
