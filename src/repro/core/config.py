"""System configuration.

:class:`RouterParams` transcribes Table 1's electrical router model;
:class:`ControlParams` sets the Lock-Step control-plane timing;
:class:`ERapidConfig` bundles everything one simulation run needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.network.topology import ERapidTopology
from repro.optics.optical_link import OpticalLinkTiming
from repro.power.levels import PowerLevelTable
from repro.power.link_power import LinkPowerModel
from repro.power.transitions import TransitionModel
from repro.core.policies import ReconfigPolicy, NP_NB

__all__ = ["RouterParams", "ControlParams", "ERapidConfig"]


@dataclass(frozen=True, slots=True)
class RouterParams:
    """Electrical router model (Table 1, after the SGI Spider chip)."""

    #: Channel width in bits.
    channel_bits: int = 16
    #: Router/link clock in GHz (400 MHz).
    clock_ghz: float = 0.4
    #: One cycle each for RC, VA, SA, ST.
    pipeline_cycles: int = 4
    #: Packet size (64 bytes -> 8 flits).
    packet_bytes: int = 64
    flit_bytes: int = 8
    #: Credit round-trip channel delay.
    credit_cycles: int = 1
    #: Virtual channels per input port (detailed engine).
    n_vcs: int = 2
    #: Flit buffer depth per VC.  Table 1 says "single flit buffer", but a
    #: depth-1 buffer cannot cover the credit round trip (flit serialization
    #: + wire + credit return), which would throttle the port below the
    #: nominal 6.4 Gbps the same table advertises; depth 2 is the minimum
    #: that sustains line rate, so it is the default.
    buf_depth: int = 2

    def __post_init__(self) -> None:
        if min(self.channel_bits, self.packet_bytes, self.flit_bytes) <= 0:
            raise ConfigurationError("router sizes must be positive")
        if self.clock_ghz <= 0:
            raise ConfigurationError("clock must be positive")
        # A credit returns at the earliest one cycle after its flit left,
        # and a VC needs a slot: the clocked router refuses anything less.
        if min(self.credit_cycles, self.n_vcs, self.buf_depth) < 1:
            raise ConfigurationError(
                "credit_cycles, n_vcs and buf_depth must be >= 1, got "
                f"{self.credit_cycles}, {self.n_vcs}, {self.buf_depth}"
            )

    @property
    def port_gbps(self) -> float:
        """Unidirectional electrical port bandwidth: 16 b x 0.4 GHz = 6.4."""
        return self.channel_bits * self.clock_ghz

    @property
    def flits_per_packet(self) -> int:
        return self.packet_bytes // self.flit_bytes

    @property
    def packet_serialization_cycles(self) -> int:
        """Cycles to clock one packet through an electrical port (32)."""
        return (self.packet_bytes * 8) // self.channel_bits


@dataclass(frozen=True, slots=True)
class ControlParams:
    """Lock-Step control-plane timing (§3.2 / Figure 4)."""

    #: Reconfiguration window R_w (2000 cycles, §3.1).
    window_cycles: int = 2000
    #: Per-hop latency of the on-board RC-LC ring.
    lc_hop_cycles: int = 4
    #: Per-hop latency of the board-to-board RC-RC electrical ring.
    rc_hop_cycles: int = 16
    #: Local classify/decide time at the Reconfigure stage.
    compute_cycles: int = 1

    def __post_init__(self) -> None:
        if self.window_cycles < 1:
            raise ConfigurationError("window_cycles must be >= 1")
        if min(self.lc_hop_cycles, self.rc_hop_cycles, self.compute_cycles) < 0:
            raise ConfigurationError("control latencies cannot be negative")

    def power_cycle_latency(self, nodes_per_board: int) -> int:
        """Power_Request LC-ring traversal time."""
        return (nodes_per_board + 1) * self.lc_hop_cycles

    def dbr_stage_latencies(self, boards: int, nodes_per_board: int) -> dict:
        """Per-stage latencies of the 5-stage DBR cycle."""
        lc_ring = (nodes_per_board + 1) * self.lc_hop_cycles
        rc_ring = boards * self.rc_hop_cycles
        return {
            "link_request": lc_ring,
            "board_request": rc_ring,
            "reconfigure": self.compute_cycles,
            "board_response": rc_ring,
            "link_response": lc_ring,
        }

    def dbr_cycle_latency(self, boards: int, nodes_per_board: int) -> int:
        """Total latency from window boundary to grant actuation."""
        return sum(self.dbr_stage_latencies(boards, nodes_per_board).values())


@dataclass(frozen=True, slots=True)
class ERapidConfig:
    """Everything one E-RAPID simulation run needs."""

    topology: ERapidTopology = field(
        default_factory=lambda: ERapidTopology(boards=8, nodes_per_board=8)
    )
    router: RouterParams = RouterParams()
    control: ControlParams = ControlParams()
    optical: OpticalLinkTiming = OpticalLinkTiming()
    policy: ReconfigPolicy = NP_NB
    power_levels: PowerLevelTable = field(default_factory=PowerLevelTable)
    link_power: LinkPowerModel = LinkPowerModel()
    transitions: TransitionModel = TransitionModel()
    #: Transmitter queue capacity per board pair, in packets.  Buffer_util
    #: is measured against this (the paper's per-LC buffer counters).
    tx_queue_capacity: int = 16
    #: Extra cycles paid when a DPM-slept laser wakes for a new packet.
    wake_cycles: int = 65
    seed: int = 1

    def __post_init__(self) -> None:
        if self.tx_queue_capacity < 1:
            raise ConfigurationError("tx_queue_capacity must be >= 1")
        if self.wake_cycles < 0:
            raise ConfigurationError("wake_cycles cannot be negative")
        if self.router.packet_bytes % self.router.flit_bytes:
            raise ConfigurationError("packet size must be a multiple of flit size")

    def with_policy(self, policy: ReconfigPolicy) -> "ERapidConfig":
        """A copy of this config running a different design-space corner."""
        return replace(self, policy=policy)

    def describe(self) -> str:
        t = self.topology
        return (
            f"E-RAPID R({t.clusters},{t.boards},{t.nodes_per_board}) "
            f"[{self.policy.name}] R_w={self.control.window_cycles} "
            f"levels={len(self.power_levels)}"
        )
