"""Electrical interconnection-network substrate.

Flit-level building blocks (packets, buffers, credits, arbiters, channels),
the cycle-accurate virtual-channel router and the send/receive NIs used
for the intra-board interconnect (IBI) in E-RAPID's detailed engine, and
the :class:`Fabric` whose clock loop ticks them.
"""

from repro.network.arbiters import MatrixArbiter, RoundRobinArbiter, SeparableAllocator
from repro.network.buffers import FlitBuffer
from repro.network.channel import Channel
from repro.network.credit import CreditCounter
from repro.network.fabric import Fabric
from repro.network.interface import SinkNI, SourceNI
from repro.network.packet import Flit, FlitType, Packet, PacketFactory
from repro.network.router import VCRouter
from repro.network.routing import ibi_routing, table_routing
from repro.network.topology import ERapidTopology, Ring
from repro.network.vc import InputVC, OutputVC, VCStatus

__all__ = [
    "Channel",
    "CreditCounter",
    "ERapidTopology",
    "Fabric",
    "Flit",
    "FlitBuffer",
    "FlitType",
    "InputVC",
    "MatrixArbiter",
    "OutputVC",
    "Packet",
    "PacketFactory",
    "Ring",
    "RoundRobinArbiter",
    "SeparableAllocator",
    "SinkNI",
    "SourceNI",
    "VCRouter",
    "VCStatus",
    "ibi_routing",
    "table_routing",
]
