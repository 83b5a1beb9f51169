"""Cycle-accurate virtual-channel router.

Implements the SGI-Spider-style pipeline from Table 1 of the paper
(per-packet: route computation RC, VC allocation VA; per-flit: switch
allocation SA, switch traversal ST — one cycle each), with credit-based
flow control and round-robin separable allocation.

The router has no clock of its own: the fabric's clock loop
(:class:`repro.network.fabric.Fabric`) calls :meth:`VCRouter.tick` once
per integer cycle, skipping routers whose input VCs are all idle
(``busy_vcs == 0`` — an idle cycle is a provable no-op: every stage scans
for non-IDLE VC state, and an all-``False`` request mask never advances
an arbiter pointer).  Delayed credit returns join the fabric's credit
due-queue.  Pipeline stages execute in *reverse* order (ST, SA, VA, RC)
within a cycle so a flit advances at most one stage per cycle, giving the
4-cycle zero-load pipeline latency the paper's router model has.

This detailed model backs the E-RAPID *detailed engine* and the substrate
tests; the full evaluation sweeps use the event-driven fast engine, which is
cross-validated against this router (see ``tests/test_cross_validation.py``).
"""

from __future__ import annotations

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
            ivc.start_packet()
            self.busy_vcs += 1

    def restore_credit(self, port: int, vc: int) -> None:
        """Downstream freed a slot on output ``port``/``vc``."""
        self.outputs[port][vc].credits.restore()

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the pipeline one cycle (ST/SA, then VA, then RC).

        The fabric calls this on integer cycles, skipping routers with
        ``busy_vcs == 0``.
        """
        self._stage_st_sa()
        self._stage_va()
        self._stage_rc()

    def _stage_rc(self) -> None:
        """Route computation for VCs holding a fresh head flit."""
        for port in range(self.n_ports):
            for ivc in self.inputs[port]:
                if ivc.status is VCStatus.ROUTING:
                    head = ivc.buffer.front()
                    if head is None:  # pragma: no cover - defensive
                        continue
                    out = self.routing_fn(self, head.dst)
                    if not 0 <= out < self.n_ports:
                        raise ConfigurationError(
                            f"routing_fn returned invalid port {out} "
                            f"for dst {head.dst} at {self.name!r}"
                        )
                    ivc.routed(out)

    def _stage_va(self) -> None:
        """VC allocation: WAITING_VC inputs compete for free output VCs.

        Request-driven: one scan over the input VCs collects the waiting
        requesters per output port, then only contested ports arbitrate.
        The arbitration sequence (port order, VC order, request masks) is
        exactly the dense scan's, so arbiter pointer state — and therefore
        every grant — is unchanged.
        """
        n_vcs = self.n_vcs
        requests: Dict[int, List[int]] = {}
        for in_port in range(self.n_ports):
            ivcs = self.inputs[in_port]
            for in_vc_idx in range(n_vcs):
                if ivcs[in_vc_idx].status is VCStatus.WAITING_VC:
                    out = ivcs[in_vc_idx].out_port
                    assert out is not None
                    requests.setdefault(out, []).append(
                        in_port * n_vcs + in_vc_idx
                    )
        if not requests:
            return
        for out_port in range(self.n_ports):
            flat_ids = requests.get(out_port)
            if flat_ids is None:
                continue
            for out_vc in range(n_vcs):
                ovc = self.outputs[out_port][out_vc]
                if not ovc.is_free:
                    continue
                mask = [False] * (self.n_ports * n_vcs)
                any_req = False
                for flat in flat_ids:
                    # A requester granted a lower-numbered output VC this
                    # cycle is no longer WAITING_VC; re-check.
                    if self.inputs[flat // n_vcs][flat % n_vcs].status is VCStatus.WAITING_VC:
                        mask[flat] = True
                        any_req = True
                if not any_req:
                    break
                winner = self._va_arbiters[out_port][out_vc].arbitrate(mask)
                if winner is None:
                    continue
                w_port, w_vc = divmod(winner, n_vcs)
                ivc = self.inputs[w_port][w_vc]
                ovc.allocate(w_port, w_vc)
                ivc.vc_granted(out_vc)

    def _stage_st_sa(self) -> None:
        """Switch allocation + traversal for ACTIVE VCs with flits/credits."""
        # Stage 1: each input port nominates one of its ready VCs.
        nominees: Dict[int, tuple[int, int]] = {}  # out_port -> (in_port, in_vc)
        requests_per_out: Dict[int, List[bool]] = {}
        chosen_vc: Dict[int, int] = {}
        for in_port in range(self.n_ports):
            mask: Optional[List[bool]] = None
            for vc_idx in range(self.n_vcs):
                ivc = self.inputs[in_port][vc_idx]
                if ivc.status is not VCStatus.ACTIVE or ivc.buffer.is_empty:
                    continue
                assert ivc.out_port is not None and ivc.out_vc is not None
                ovc = self.outputs[ivc.out_port][ivc.out_vc]
                channel = self.channels[ivc.out_port]
                if not ovc.credits.has_credit:
                    continue
                if channel is None or channel.busy:
                    continue
                if mask is None:
                    mask = [False] * self.n_vcs
                mask[vc_idx] = True
            if mask is None:
                # An all-False arbitration grants nothing and leaves the
                # pointer untouched; skip it entirely.
                continue
            pick = self._sa_input[in_port].arbitrate(mask)
            if pick is not None:
                chosen_vc[in_port] = pick
                out_port = self.inputs[in_port][pick].out_port
                assert out_port is not None
                requests_per_out.setdefault(
                    out_port, [False] * self.n_ports
                )[in_port] = True
        # Stage 2: each output port grants one input; traverse.
        for out_port, mask in requests_per_out.items():
            winner = self._sa_output[out_port].arbitrate(mask)
            if winner is None:
                continue
            self._traverse(winner, chosen_vc[winner])

    def _traverse(self, in_port: int, in_vc_idx: int) -> None:
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
                self.credit_ring.push(
                    self.sim.now + self.credit_latency, (ret, in_vc_idx)
                )
        if flit.is_tail:
            self.packets_routed += 1
            self.outputs[out_port][out_vc].free()
            ivc.finish_packet()
            # A queued head from the next packet may already be buffered.
            nxt = ivc.buffer.front()
            if nxt is not None and nxt.is_head:
                ivc.start_packet()
            else:
                self.busy_vcs -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCRouter {self.name!r} {self.n_ports}p x {self.n_vcs}vc>"
