"""Workload specifications.

A :class:`WorkloadSpec` is the declarative description of one simulation
run's offered traffic: pattern, load (as a fraction of the uniform-random
network capacity N_c, per §4), packet sizing, injection process and seed.
``build_sources`` resolves it into per-node :class:`TrafficSource` objects
with independent RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

from repro.errors import ConfigurationError
from repro.network.packet import PacketFactory
from repro.network.topology import ERapidTopology
from repro.sim.rng import RngRegistry
from repro.traffic.capacity import CapacityModel, CapacityParams
from repro.traffic.injection import (
    BernoulliProcess,
    InjectionProcess,
    OnOffProcess,
    PoissonProcess,
    TrafficSource,
)
from repro.traffic.patterns import TrafficPattern, make_pattern

__all__ = ["WorkloadSpec"]

_PROCESSES = {
    "bernoulli": BernoulliProcess,
    "poisson": PoissonProcess,
    "onoff": OnOffProcess,
}


@lru_cache(maxsize=256)
def _uniform_capacity(topology: ERapidTopology, params: CapacityParams) -> float:
    """N_c of one topology, computed once per process (every run of a
    sweep normalises its load by it)."""
    return CapacityModel.uniform_capacity(topology, params)


@dataclass
class WorkloadSpec:
    """Declarative description of offered traffic for one run."""

    pattern: str = "uniform"
    #: Offered load as a fraction of N_c(uniform); §4 sweeps 0.1–0.9.
    load: float = 0.5
    packet_bytes: int = 64
    flit_bytes: int = 8
    process: str = "bernoulli"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ConfigurationError(f"load must be >= 0, got {self.load}")
        if self.process not in _PROCESSES:
            raise ConfigurationError(
                f"unknown injection process {self.process!r}; "
                f"known: {sorted(_PROCESSES)}"
            )

    # ------------------------------------------------------------------
    def resolve_pattern(self, topology: ERapidTopology) -> TrafficPattern:
        return make_pattern(self.pattern, topology.total_nodes)

    def injection_rate(
        self, topology: ERapidTopology, params: CapacityParams = CapacityParams()
    ) -> float:
        """Absolute per-node injection rate: load × N_c(uniform)."""
        return self.load * _uniform_capacity(topology, params)

    def build_sources(
        self,
        topology: ERapidTopology,
        params: CapacityParams = CapacityParams(),
    ) -> List[TrafficSource]:
        """One :class:`TrafficSource` per node, independently seeded."""
        pattern = self.resolve_pattern(topology)
        rate = self.injection_rate(topology, params)
        factory = PacketFactory(self.packet_bytes, self.flit_bytes)
        registry = RngRegistry(seed=self.seed)
        sources = []
        for node in range(topology.total_nodes):
            process: InjectionProcess = _PROCESSES[self.process](rate)
            sources.append(
                TrafficSource(
                    node,
                    pattern,
                    process,
                    factory=factory,
                    rng=registry.stream(f"inject.{node}"),
                )
            )
        return sources

    def describe(self) -> str:
        return (
            f"{self.pattern} @ {self.load:.2f} N_c, {self.packet_bytes}B "
            f"packets, {self.process} injection, seed {self.seed}"
        )
