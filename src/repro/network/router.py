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
the input ports holding an ACTIVE VC.  Each list is visited in the order
a full scan would meet its entries, so every arbiter sees the same
request masks in the same sequence (DESIGN.md §6).

This detailed model backs the E-RAPID *detailed engine* and the substrate
tests; the full evaluation sweeps use the event-driven fast engine, which is
cross-validated against this router (see ``tests/test_cross_validation.py``).
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.network.arbiters import RoundRobinArbiter
from repro.network.channel import Channel
from repro.network.credit import CreditReturn
from repro.network.packet import Flit
from repro.network.vc import InputVC, OutputVC, VCStatus
from repro.sim.cycle import DueQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["VCRouter"]

#: Routing function: (router, destination node id) -> output port index.
RoutingFn = Callable[["VCRouter", int], int]


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
        The fabric's credit due-queue; delayed upstream credit returns
        join it and the fabric's tick applies them when they come due.
    credit_latency:
        Cycles for a credit to return upstream (Table 1: one cycle).
    """

    __slots__ = (
        "sim", "n_ports", "n_vcs", "buf_depth", "routing_fn",
        "credit_latency", "name", "inputs", "outputs", "channels",
        "credit_returns", "credit_ring", "_va_arbiters", "_sa_input",
        "_sa_output", "flits_routed", "packets_routed", "busy_vcs",
        "_rc_pending", "_va_waiting", "_active_ports", "_active_vcs",
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
        self.sim = sim
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        self.buf_depth = buf_depth
        self.routing_fn = routing_fn
        self.credit_latency = credit_latency
        self.name = name

        self.inputs: List[List[InputVC]] = [
            [InputVC(sim, buf_depth, name=f"{name}.in{p}.vc{v}") for v in range(n_vcs)]
            for p in range(n_ports)
        ]
        self.outputs: List[List[OutputVC]] = [
            [OutputVC(buf_depth) for _ in range(n_vcs)] for _ in range(n_ports)
        ]
        self.channels: List[Optional[Channel]] = [None] * n_ports
        #: Per input port: callback(vc) that restores one upstream credit.
        self.credit_returns: List[Optional[Callable[[int], None]]] = [None] * n_ports
        self.credit_ring = credit_ring

        self._va_arbiters = [
            [RoundRobinArbiter(n_ports * n_vcs) for _ in range(n_vcs)]
            for _ in range(n_ports)
        ]
        self._sa_input = [RoundRobinArbiter(n_vcs) for _ in range(n_ports)]
        self._sa_output = [RoundRobinArbiter(n_ports) for _ in range(n_ports)]

        self.flits_routed = 0
        self.packets_routed = 0
        #: Input VCs currently carrying a packet; 0 means a tick is a no-op.
        self.busy_vcs = 0
        # The stages' worklists, each in step with the InputVC states:
        #: flat ids (``port * n_vcs + vc``) of the VCs in ROUTING;
        self._rc_pending: List[int] = []
        #: output port -> flat ids of the WAITING_VC VCs routed to it;
        self._va_waiting: Dict[int, List[int]] = {}
        #: input ports holding >= 1 ACTIVE VC, ascending;
        self._active_ports: List[int] = []
        #: per input port, its number of ACTIVE VCs.
        self._active_vcs: List[int] = [0] * n_ports

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
        if flit.vc is None:
            raise SimulationError(f"flit {flit!r} arrived without a VC assignment")
        ivc = self.inputs[port][flit.vc]
        ivc.buffer.push(flit)
        # Start the packet only when the VC is idle; a head that queues
        # behind an in-flight packet is started when that packet's tail
        # departs (see _traverse).
        if flit.is_head and ivc.status is VCStatus.IDLE:
            self._start(ivc, port * self.n_vcs + flit.vc)
            self.busy_vcs += 1

    def restore_credit(self, port: int, vc: int) -> None:
        """Downstream freed a slot on output ``port``/``vc``."""
        self.outputs[port][vc].credits.restore()

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance the pipeline one cycle (ST/SA, then VA, then RC).

        The fabric calls this on integer cycles ``now``, skipping routers
        with ``busy_vcs == 0``.
        """
        self._stage_st_sa(now)
        self._stage_va()
        self._stage_rc()

    def _start(self, ivc: InputVC, flat: int) -> None:
        """Put ``ivc`` (flat id ``port * n_vcs + vc``), now led by a head
        flit, in ROUTING and on the RC worklist."""
        ivc.start_packet()
        self._rc_pending.append(flat)

    def _stage_rc(self) -> None:
        """Route computation for the VCs that entered ROUTING."""
        pending = self._rc_pending
        if not pending:
            return
        # Heads arrive in delivery order; route in the (port, VC) order.
        pending.sort()
        n_vcs = self.n_vcs
        inputs = self.inputs
        waiting = self._va_waiting
        for flat in pending:
            ivc = inputs[flat // n_vcs][flat % n_vcs]
            dst = ivc.buffer.front().dst
            out = self.routing_fn(self, dst)
            if not 0 <= out < self.n_ports:
                raise ConfigurationError(
                    f"routing_fn returned invalid port {out} "
                    f"for dst {dst} at {self.name!r}"
                )
            ivc.routed(out)
            requesters = waiting.get(out)
            if requesters is None:
                waiting[out] = [flat]
            else:
                requesters.append(flat)
        pending.clear()

    def _stage_va(self) -> None:
        """VC allocation: WAITING_VC inputs compete for free output VCs.

        Output ports with requesters arbitrate in ascending order, each
        over its output VCs in ascending order, with a request mask built
        from the port's still-waiting requesters — the arbitration
        sequence of a full scan, so every grant and arbiter pointer is
        unchanged.
        """
        waiting = self._va_waiting
        if not waiting:
            return
        n_vcs = self.n_vcs
        n_requesters = self.n_ports * n_vcs
        inputs = self.inputs
        active = self._active_vcs
        for out_port in sorted(waiting):
            requesters = waiting[out_port]
            arbiters = self._va_arbiters[out_port]
            outputs = self.outputs[out_port]
            for out_vc in range(n_vcs):
                ovc = outputs[out_vc]
                if not ovc.is_free:
                    continue
                mask = [False] * n_requesters
                for flat in requesters:
                    mask[flat] = True
                winner = arbiters[out_vc].arbitrate(mask)
                assert winner is not None
                requesters.remove(winner)
                w_port, w_vc = divmod(winner, n_vcs)
                ovc.allocate(w_port, w_vc)
                inputs[w_port][w_vc].vc_granted(out_vc)
                if not active[w_port]:
                    insort(self._active_ports, w_port)
                active[w_port] += 1
                if not requesters:
                    del waiting[out_port]
                    break

    def _stage_st_sa(self, now: float) -> None:
        """Switch allocation + traversal for ACTIVE VCs with flits/credits."""
        active_ports = self._active_ports
        if not active_ports:
            return
        # Stage 1: each input port holding an ACTIVE VC nominates one of
        # its ready VCs, in ascending port order.
        requests_per_out: Dict[int, List[bool]] = {}
        chosen_vc: Dict[int, int] = {}
        inputs = self.inputs
        outputs = self.outputs
        channels = self.channels
        n_vcs = self.n_vcs
        active_state = VCStatus.ACTIVE
        for in_port in active_ports:
            mask: Optional[List[bool]] = None
            row = inputs[in_port]
            for vc_idx in range(n_vcs):
                ivc = row[vc_idx]
                if ivc.status is not active_state or ivc.buffer.is_empty:
                    continue
                out_port = ivc.out_port
                assert out_port is not None and ivc.out_vc is not None
                if outputs[out_port][ivc.out_vc].credits.credits <= 0:
                    continue
                channel = channels[out_port]
                if channel is None or channel.busy_until > now:
                    continue
                if mask is None:
                    mask = [False] * n_vcs
                mask[vc_idx] = True
            if mask is None:
                # An all-False arbitration grants nothing and leaves the
                # pointer untouched; skip it entirely.
                continue
            pick = self._sa_input[in_port].arbitrate(mask)
            if pick is not None:
                chosen_vc[in_port] = pick
                out_port = row[pick].out_port
                assert out_port is not None
                requests_per_out.setdefault(
                    out_port, [False] * self.n_ports
                )[in_port] = True
        # Stage 2: each output port grants one input; traverse.
        for out_port, mask in requests_per_out.items():
            winner = self._sa_output[out_port].arbitrate(mask)
            if winner is None:
                continue
            self._traverse(winner, chosen_vc[winner], now)

    def _traverse(self, in_port: int, in_vc_idx: int, now: float) -> None:
        ivc = self.inputs[in_port][in_vc_idx]
        assert ivc.out_port is not None and ivc.out_vc is not None
        out_port, out_vc = ivc.out_port, ivc.out_vc
        flit = ivc.buffer.pop()
        flit.vc = out_vc
        self.outputs[out_port][out_vc].credits.consume()
        channel = self.channels[out_port]
        assert channel is not None
        channel.send(flit)
        self.flits_routed += 1
        # Return a credit upstream for the freed input slot.
        ret = self.credit_returns[in_port]
        if ret is not None:
            if self.credit_latency == 0:
                ret(in_vc_idx)
            else:
                self.credit_ring.push(now + self.credit_latency, (ret, in_vc_idx))
        if flit.is_tail:
            self.packets_routed += 1
            self.outputs[out_port][out_vc].free()
            ivc.finish_packet()
            active = self._active_vcs
            active[in_port] -= 1
            if not active[in_port]:
                self._active_ports.remove(in_port)
            # A queued head from the next packet may already be buffered.
            nxt = ivc.buffer.front()
            if nxt is not None and nxt.is_head:
                self._start(ivc, in_port * self.n_vcs + in_vc_idx)
            else:
                self.busy_vcs -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCRouter {self.name!r} {self.n_ports}p x {self.n_vcs}vc>"
