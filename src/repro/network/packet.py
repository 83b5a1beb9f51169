"""Packets and flits.

E-RAPID splits a packet into fixed-size *flits* (flow-control units) for the
electrical domain; the optical domain transmits whole packets (§2.1 of the
paper: "flits from different nodes are interleaved in the electrical domain
using virtual channels whereas packets from different boards are interleaved
in the optical domain").

The default sizing follows Table 1: 64-byte packets, 8 flits/packet, 16-bit
phits at 400 MHz (a flit is 4 phit-cycles on an electrical channel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.errors import ConfigurationError

__all__ = ["FlitType", "Flit", "Packet", "PacketFactory"]

_packet_ids = itertools.count()


class FlitType(Enum):
    """Position of a flit within its packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: Single-flit packet: simultaneously head and tail.
    HEAD_TAIL = "head_tail"


@dataclass(slots=True)
class Packet:
    """One network packet.

    Times are in router cycles; ``None`` until the corresponding event
    happens.  ``labeled`` marks packets injected during the measurement
    interval (the paper's methodology: only labeled packets contribute to
    latency/throughput statistics).
    """

    src: int
    dst: int
    size_flits: int = 8
    size_bytes: int = 64
    created_at: float = 0.0
    injected_at: Optional[float] = None
    delivered_at: Optional[float] = None
    labeled: bool = False
    #: Set by the optical plane: which wavelength carried the packet.
    wavelength: Optional[int] = None
    pid: int = field(default_factory=_packet_ids.__next__)

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def latency(self) -> float:
        """Creation-to-delivery latency (the paper's network latency)."""
        if self.delivered_at is None:
            raise ConfigurationError(f"packet {self.pid} not delivered yet")
        return self.delivered_at - self.created_at

    def flits(self) -> List["Flit"]:
        """Expand into the flit sequence for the electrical domain."""
        if self.size_flits == 1:
            return [Flit(self, 0, FlitType.HEAD_TAIL)]
        out = [Flit(self, 0, FlitType.HEAD)]
        out += [Flit(self, i, FlitType.BODY) for i in range(1, self.size_flits - 1)]
        out.append(Flit(self, self.size_flits - 1, FlitType.TAIL))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet #{self.pid} {self.src}->{self.dst} {self.size_flits}f>"


class Flit:
    """One flow-control unit of a packet.

    ``is_head`` / ``is_tail`` are plain slots set once from ``ftype``: the
    routers and NIs read them for every flit at every hop.
    """

    __slots__ = ("packet", "index", "ftype", "vc", "is_head", "is_tail")

    def __init__(
        self, packet: Packet, index: int, ftype: FlitType, vc: Optional[int] = None
    ) -> None:
        self.packet = packet
        self.index = index
        self.ftype = ftype
        #: Assigned by VC allocation at each hop.
        self.vc = vc
        self.is_head = ftype is FlitType.HEAD or ftype is FlitType.HEAD_TAIL
        self.is_tail = ftype is FlitType.TAIL or ftype is FlitType.HEAD_TAIL

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flit {self.ftype.value} {self.index} of pkt#{self.packet.pid}>"


class PacketFactory:
    """Builds packets with consistent sizing (Table 1 defaults)."""

    __slots__ = ("size_bytes", "flit_bytes", "size_flits")

    def __init__(self, size_bytes: int = 64, flit_bytes: int = 8) -> None:
        if size_bytes <= 0 or flit_bytes <= 0:
            raise ConfigurationError("packet and flit sizes must be positive")
        if size_bytes % flit_bytes:
            raise ConfigurationError(
                f"packet size {size_bytes}B not a multiple of flit size {flit_bytes}B"
            )
        self.size_bytes = size_bytes
        self.flit_bytes = flit_bytes
        self.size_flits = size_bytes // flit_bytes

    def make(
        self,
        src: int,
        dst: int,
        now: float,
        labeled: bool = False,
    ) -> Packet:
        """A new packet created at ``now``."""
        return Packet(
            src, dst, self.size_flits, self.size_bytes, now, None, None, labeled
        )
