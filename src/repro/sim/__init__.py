"""Discrete-event simulation kernel.

The reproduction's substitute for the YACSIM/NETSIM simulator the paper
used: the event heap (:class:`repro.sim.kernel.Simulator`, the entry
point), generator processes and stores for the coarse event-driven
models, the cycle driver and due-queues the clocked electrical substrate
rides on, RNG streams, statistics and tracing.
"""

from repro.sim.cycle import CycleDriver, DueQueue
from repro.sim.events import CompositeWait, ScheduledEvent, Timeout, Waitable
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.queues import MonitoredStore
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry, geometric_gap
from repro.sim.stats import Histogram, Tally, TimeWeighted
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "CompositeWait",
    "CycleDriver",
    "DueQueue",
    "Histogram",
    "MonitoredStore",
    "Process",
    "RngRegistry",
    "ScheduledEvent",
    "Simulator",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "TraceLog",
    "TraceRecord",
    "Waitable",
    "geometric_gap",
]
