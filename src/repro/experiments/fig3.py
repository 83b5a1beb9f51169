"""Figure 3: the power/bandwidth design space as time series.

The paper's conceptual figure shows, for each of NP-NB / P-NB / NP-B / P-B,
how link power level and utilization evolve as traffic intensity changes.
We reproduce it with an actual simulation: a hot board-pair whose offered
load steps low -> high -> low, probing the pair's static channel every
quarter-window.  The four corners then show exactly the paper's story:

* NP-NB: power pinned at P_high regardless of utilization;
* P-NB : power tracks utilization between the three levels;
* NP-B : extra wavelengths appear under load (channel count steps up),
  power roughly doubles while it does;
* P-B  : extra wavelengths *and* per-channel scaling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ERapidConfig
from repro.core.engine import FastEngine
from repro.core.policies import POLICIES
from repro.metrics.collector import MeasurementPlan
from repro.metrics.timeseries import ChannelProbe, ProbeSample
from repro.network.packet import PacketFactory
from repro.network.topology import ERapidTopology
from repro.perf.cache import RunCache, key_digest, key_texts
from repro.perf.engines import DEFAULT_ENGINE
from repro.sim.rng import RngRegistry
from repro.traffic.injection import ProfiledBernoulliProcess, TrafficSource
from repro.traffic.workload import WorkloadSpec

__all__ = ["DesignSpaceResult", "ProbedRun", "run_fig3", "render_fig3"]

#: ``(start cycle, packets/node/cycle)`` steps of an offered-load profile.
Profile = Sequence[Tuple[float, float]]

#: Offered-load profile: low -> high -> low.
#: The high phase oversubscribes one channel (~0.006 pkt/node/cyc for the
#: hot pair) but fits in two, so the bandwidth-reconfigured corners absorb
#: it and the backlog drains quickly once the load drops.
DEFAULT_PROFILE: Profile = ((0.0, 0.002), (8000.0, 0.008), (18000.0, 0.002))


@dataclass
class DesignSpaceResult:
    """Per-policy channel samples + system power series."""

    policy: str
    samples: List[ProbeSample]
    pair_channels: List[int]
    times: List[float]

    def to_dict(self) -> Dict[str, Any]:
        """Plain data whose JSON round trip is exact (a cache entry's value)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DesignSpaceResult":
        return cls(
            policy=data["policy"],
            samples=[ProbeSample(**s) for s in data["samples"]],
            pair_channels=data["pair_channels"],
            times=data["times"],
        )


@dataclass(frozen=True)
class ProbedRun:
    """One corner of the figure, described declaratively: a fast-engine
    run under a load ``profile``, probed every ``sample_period`` up to
    ``horizon``.  Next to :class:`repro.perf.executor.RunTask`, the second
    shape of run that reaches the cache."""

    config: ERapidConfig
    workload: WorkloadSpec
    plan: MeasurementPlan
    profile: Profile
    horizon: float
    sample_period: float
    #: ``(source board, destination board)`` of the sampled channel.
    probe: Tuple[int, int]

    def cache_key(self) -> str:
        """Content address over every field.  The run description (with
        ``KERNEL_VERSION`` and ``CACHE_FORMAT``) is
        :func:`repro.perf.cache.canonical_payload`'s, as
        :func:`~repro.perf.cache.key_texts` spells it; the ``stage`` field
        keeps the payload apart from every plain run's."""
        return key_digest(
            key_texts(self.config, self.workload, self.plan),
            extra={
                "stage": "fig3",
                "profile": [[float(t), float(rate)] for t, rate in self.profile],
                "horizon": float(self.horizon),
                "sample_period": float(self.sample_period),
                "probe": list(self.probe),
            },
        )

    def execute(self) -> DesignSpaceResult:
        """Simulate to ``horizon``, sampling the ``probe`` pair's static
        channel and its channel count."""
        topo = self.config.topology
        src, dst = self.probe
        pattern = self.workload.resolve_pattern(topo)
        factory = PacketFactory()
        registry = RngRegistry(seed=self.workload.seed)
        sources = [
            TrafficSource(
                node,
                pattern,
                ProfiledBernoulliProcess(list(self.profile)),
                factory=factory,
                rng=registry.stream(f"fig3.{node}"),
            )
            for node in range(topo.total_nodes)
        ]
        engine = FastEngine(self.config, self.workload, self.plan, sources=sources)
        channel = ChannelProbe(
            engine,
            engine.srs.rwa.wavelength_for(src, dst),
            dst,
            period=self.sample_period,
        )
        pair_counts: List[int] = []
        times: List[float] = []

        def sampler():
            while True:
                yield engine.sim.timeout(self.sample_period)
                times.append(engine.sim.now)
                pair_counts.append(len(engine.srs.channels_from(src, dst)))

        engine.start()
        channel.start()
        engine.sim.process(sampler(), name="pair-count-probe")
        engine.sim.run(until=self.horizon)
        return DesignSpaceResult(
            policy=self.config.policy.name,
            samples=list(channel.samples),
            pair_channels=pair_counts,
            times=times,
        )


def run_fig3(
    boards: int = 4,
    nodes_per_board: int = 4,
    profile: Optional[Profile] = None,
    horizon: float = 28000.0,
    sample_period: float = 500.0,
    cache: Optional[RunCache] = None,
) -> Dict[str, DesignSpaceResult]:
    """Run the staged-traffic experiment for all four configurations.

    With a ``cache``, each corner is one entry under its
    :meth:`ProbedRun.cache_key` holding its whole
    :class:`DesignSpaceResult`; only the corners that miss are simulated
    (and stored).
    """
    topo = ERapidTopology(boards=boards, nodes_per_board=nodes_per_board)
    runs = [
        ProbedRun(
            config=ERapidConfig(topology=topo, policy=policy),
            workload=WorkloadSpec(pattern="complement", seed=3),
            plan=MeasurementPlan(warmup=1000, measure=horizon - 1000, drain_limit=0),
            profile=DEFAULT_PROFILE if profile is None else profile,
            horizon=horizon,
            sample_period=sample_period,
            # Board 0's static wavelength toward its complement board (the
            # hot pair under complement traffic).
            probe=(0, boards - 1),
        )
        for policy in POLICIES.values()
    ]
    if cache is None:
        return {name: run.execute() for name, run in zip(POLICIES, runs)}
    keys = [run.cache_key() for run in runs]
    found = cache.get_many(keys, decode=DesignSpaceResult.from_dict)
    out: Dict[str, DesignSpaceResult] = {}
    fresh: List[Tuple[str, DesignSpaceResult, str]] = []
    for name, run, key, result in zip(POLICIES, runs, keys, found):
        if result is None:
            result = run.execute()
            fresh.append((key, result, DEFAULT_ENGINE))
        out[name] = result
    cache.put_many(fresh)
    return out


def render_fig3(results: Dict[str, DesignSpaceResult]) -> str:
    """Text rendering: per-policy time series of level/power/util/channels."""
    from repro.metrics.report import format_table

    parts = []
    for name, res in results.items():
        rows = []
        for sample, nch in zip(res.samples, res.pair_channels):
            rows.append(
                [
                    sample.time,
                    sample.level_name,
                    sample.power_mw,
                    round(sample.utilization, 3),
                    nch,
                ]
            )
        parts.append(
            format_table(
                ["t", "level", "power_mW", "util", "pair_channels"],
                rows[:: max(1, len(rows) // 14)],
                title=f"== Figure 3 ({name}): hot channel over the load ramp ==",
            )
        )
        parts.append("")
    return "\n".join(parts)
