"""Packet injection processes.

§4: "Packets were injected according to Bernoulli process based on the
network load".  A Bernoulli(p) per-cycle coin is sampled directly as
geometric inter-arrival gaps (O(1) per packet).  Poisson and two-state
bursty (on/off Markov-modulated) processes are provided for the extension
benches — locality/burstiness is exactly what history-based reconfiguration
exploits.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.network.packet import Packet, PacketFactory
from repro.sim.rng import RngRegistry, geometric_gap, geometric_gap_array
from repro.traffic.patterns import TrafficPattern

__all__ = [
    "InjectionProcess",
    "BernoulliProcess",
    "PoissonProcess",
    "OnOffProcess",
    "ProfiledBernoulliProcess",
    "TrafficSource",
]


class InjectionProcess:
    """Samples inter-arrival gaps (cycles, >= 1) at mean rate ``rate``."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ConfigurationError(f"injection rate must be >= 0, got {rate}")
        self.rate = rate

    def next_gap(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def gap_batch(
        self, rng: np.random.Generator, n: int
    ) -> Optional[List[Union[int, float]]]:
        """``n`` gaps in one vectorized draw, or ``None`` if unsupported.

        The contract is *bit-identity*: ``gap_batch(rng, n)`` must consume
        the stream exactly as ``n`` successive :meth:`next_gap` calls and
        return the same values as plain Python numbers (numpy scalars
        would poison repr-based fingerprints downstream).  Processes whose
        sampling is stateful or clock-dependent return ``None`` and stay
        on the scalar path.
        """
        return None


class BernoulliProcess(InjectionProcess):
    """One packet with probability ``rate`` per cycle (the paper's process)."""

    def next_gap(self, rng: np.random.Generator) -> float:
        return geometric_gap(rng, self.rate)

    def gap_batch(
        self, rng: np.random.Generator, n: int
    ) -> Optional[List[Union[int, float]]]:
        # geometric_gap's degenerate rates never touch the rng, so only
        # the open interval is batchable stream-identically.
        if not 0.0 < self.rate < 1.0:
            return None
        return geometric_gap_array(rng, self.rate, n).tolist()


class PoissonProcess(InjectionProcess):
    """Exponential inter-arrivals with mean ``1/rate`` cycles."""

    def next_gap(self, rng: np.random.Generator) -> float:
        if self.rate <= 0:
            return float(1 << 30)
        return max(1.0, float(rng.exponential(1.0 / self.rate)))

    def gap_batch(
        self, rng: np.random.Generator, n: int
    ) -> Optional[List[Union[int, float]]]:
        if self.rate <= 0:
            return None
        scale = 1.0 / self.rate
        return np.maximum(1.0, rng.exponential(scale, size=n)).tolist()


class OnOffProcess(InjectionProcess):
    """Two-state Markov-modulated Bernoulli process (bursty traffic).

    In the ON state packets are injected at ``rate * burstiness`` and the
    state persists with mean length ``mean_burst`` packets; OFF periods are
    sized so the long-run average rate equals ``rate``.
    """

    def __init__(self, rate: float, burstiness: float = 4.0, mean_burst: float = 8.0) -> None:
        super().__init__(rate)
        if burstiness < 1.0:
            raise ConfigurationError(f"burstiness must be >= 1, got {burstiness}")
        if mean_burst < 1.0:
            raise ConfigurationError(f"mean_burst must be >= 1, got {mean_burst}")
        self.burstiness = burstiness
        self.mean_burst = mean_burst
        self._in_burst_left = 0.0

    def next_gap(self, rng: np.random.Generator) -> float:
        if self.rate <= 0:
            return float(1 << 30)
        on_rate = min(1.0, self.rate * self.burstiness)
        if self._in_burst_left <= 0:
            # Entering a new burst after an OFF gap that restores the mean.
            self._in_burst_left = float(rng.geometric(1.0 / self.mean_burst))
            mean_cycle_len = self.mean_burst / self.rate
            mean_on_len = self.mean_burst / on_rate
            off_len = max(0.0, mean_cycle_len - mean_on_len)
            off_gap = float(rng.exponential(off_len)) if off_len > 0 else 0.0
        else:
            off_gap = 0.0
        self._in_burst_left -= 1
        return max(1.0, off_gap + geometric_gap(rng, on_rate))


class ProfiledBernoulliProcess(InjectionProcess):
    """Bernoulli injection whose rate follows a piecewise-constant profile.

    Drives the Figure 3 design-space experiment (traffic that ramps low ->
    high -> low so power level and utilization visibly track it).  The
    profile is ``[(start_time, rate), ...]`` sorted by start time; the rate
    in force at the *current simulation time* is used for each gap, so the
    engine must call :meth:`bind_clock` before the run starts.
    """

    def __init__(self, profile: list) -> None:
        if not profile:
            raise ConfigurationError("profile needs at least one (time, rate) pair")
        times = [t for t, _ in profile]
        if times != sorted(times):
            raise ConfigurationError(f"profile times must ascend, got {times}")
        for _, rate in profile:
            if rate < 0:
                raise ConfigurationError(f"profile rate must be >= 0, got {rate}")
        super().__init__(rate=profile[0][1])
        self.profile = list(profile)
        self._clock = None

    def bind_clock(self, clock) -> None:
        """Install a zero-argument callable returning the current time."""
        self._clock = clock

    def rate_at(self, now: float) -> float:
        rate = self.profile[0][1]
        for t, r in self.profile:
            if now >= t:
                rate = r
            else:
                break
        return rate

    def next_gap(self, rng: np.random.Generator) -> float:
        if self._clock is None:
            raise ConfigurationError(
                "ProfiledBernoulliProcess used before bind_clock() was called"
            )
        rate = self.rate_at(float(self._clock()))
        if rate <= 0.0:
            # Re-check for a live profile segment every 100 cycles.
            return 100.0
        return geometric_gap(rng, rate)


#: Gaps drawn per vectorized refill of a source's gap buffer.
GAP_CHUNK = 256


class TrafficSource:
    """Per-node packet generator: injection process + pattern + factory."""

    def __init__(
        self,
        node: int,
        pattern: TrafficPattern,
        process: InjectionProcess,
        factory: Optional[PacketFactory] = None,
        rng: Optional[np.random.Generator] = None,
        gap_chunk: int = GAP_CHUNK,
    ) -> None:
        if not 0 <= node < pattern.n_nodes:
            raise ConfigurationError(
                f"node {node} out of range for {pattern.n_nodes}-node pattern"
            )
        if gap_chunk < 1:
            raise ConfigurationError(
                f"gap_chunk must be >= 1, got {gap_chunk}"
            )
        self.node = node
        self.pattern = pattern
        self.process = process
        self.factory = factory or PacketFactory()
        # Fallback stream for ad-hoc construction (tests, examples); real
        # workloads pass a stream from their own seeded registry.
        self.rng = (
            rng
            if rng is not None
            else RngRegistry(seed=0).stream(f"source.{node}")
        )
        self.generated = 0
        # Batched gap draws are stream-identical to scalar draws only when
        # nothing else consumes this source's stream between gaps — i.e.
        # when the pattern's dest() is a fixed permutation.  Uniform
        # traffic interleaves dest draws with gap draws and must stay
        # scalar.
        self._gap_buffer: List[Union[int, float]] = []
        self._gap_pos = 0
        self._batchable = pattern.is_permutation
        # Chunk size of each vectorized refill.  Any value yields the same
        # stream (numpy fills arrays element by element), so the batch
        # engine can align its draws with the scalar path at whatever
        # chunking its slab geometry prefers.
        self.gap_chunk = int(gap_chunk)

    def next_gap(self) -> float:
        """Cycles until this node's next injection."""
        pos = self._gap_pos
        buf = self._gap_buffer
        if pos < len(buf):
            self._gap_pos = pos + 1
            return buf[pos]
        if self._batchable:
            batch = self.process.gap_batch(self.rng, self.gap_chunk)
            if batch is not None:
                self._gap_buffer = batch
                self._gap_pos = 1
                return batch[0]
            # The process can't batch (degenerate rate / stateful); don't
            # re-try on every gap.
            self._batchable = False
        return self.process.next_gap(self.rng)

    def next_packet(self, now: float, labeled: bool = False) -> Packet:
        """Create the packet injected at ``now``."""
        dst = self.pattern.dest(self.node, self.rng)
        self.generated += 1
        return self.factory.make(self.node, dst, now, labeled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrafficSource node={self.node} {self.pattern.name}>"
