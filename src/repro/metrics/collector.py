"""Measurement methodology (§4).

"The simulator was warmed up under load without taking measurements until
steady state was reached.  Then a sample of injected packets were labelled
during a measurement interval.  The simulation was allowed to run until all
the labelled packets reached their destinations."

:class:`MeasurementPlan` fixes the phase boundaries; :class:`Collector`
tallies injections/deliveries per phase and owns the labeled-packet latency
statistics.  Throughput is *accepted traffic*: packets delivered during the
measurement interval / (interval x nodes) — at saturation this is the
sustainable rate, while labeled latency is measured over delivered labeled
packets (censored at saturation, as in the paper's methodology).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import MeasurementError
from repro.network.packet import Packet
from repro.sim.stats import Histogram, Tally

__all__ = ["MeasurementPlan", "Collector", "RunResult"]


@dataclass(frozen=True)
class MeasurementPlan:
    """Warm-up / measure / drain phase boundaries, in cycles."""

    warmup: float = 4000.0
    measure: float = 10000.0
    #: Hard cap on the drain phase (labeled packets still in flight at the
    #: cap are abandoned — standard practice past saturation).
    drain_limit: float = 30000.0

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.measure <= 0 or self.drain_limit < 0:
            raise MeasurementError(f"bad measurement plan {self}")

    @property
    def measure_end(self) -> float:
        return self.warmup + self.measure

    @property
    def hard_end(self) -> float:
        return self.measure_end + self.drain_limit


class Collector:
    """Phase-aware injection/delivery bookkeeping for one run."""

    def __init__(self, plan: MeasurementPlan, n_nodes: int) -> None:
        if n_nodes < 1:
            raise MeasurementError("n_nodes must be >= 1")
        self.plan = plan
        #: The measure window [warmup, measure_end), read on every packet.
        self._start = plan.warmup
        self._end = plan.measure_end
        self.n_nodes = n_nodes
        self.injected_total = 0
        self.injected_measure = 0
        self.delivered_total = 0
        self.delivered_measure = 0
        self.labeled_injected = 0
        self.labeled_delivered = 0
        self.latency = Tally()
        self.latency_hist = Histogram(0.0, 20000.0, 200)
        #: Captured by the engine exactly when the measure phase ends.
        self.power_avg_mw: Optional[float] = None

    # ------------------------------------------------------------------
    def labeling(self, now: float) -> bool:
        """Whether packets created at ``now`` should be labeled."""
        return self._start <= now < self._end

    def on_injected(self, pkt: Packet, now: float) -> None:
        self.injected_total += 1
        if self._start <= now < self._end:
            self.injected_measure += 1
        if pkt.labeled:
            self.labeled_injected += 1

    def on_delivered(self, pkt: Packet, now: float) -> None:
        self.delivered_total += 1
        if self._start <= now < self._end:
            self.delivered_measure += 1
        if pkt.labeled:
            self.labeled_delivered += 1
            latency = pkt.latency
            self.latency.add(latency)
            self.latency_hist.add(latency)

    # ------------------------------------------------------------------
    @property
    def labeled_outstanding(self) -> int:
        return self.labeled_injected - self.labeled_delivered

    def drained(self) -> bool:
        return self.labeled_outstanding == 0

    def result(self, **extra: object) -> "RunResult":
        """Finalize into a :class:`RunResult`."""
        m = self.plan.measure
        return RunResult(
            throughput=self.delivered_measure / (m * self.n_nodes),
            offered=self.injected_measure / (m * self.n_nodes),
            avg_latency=self.latency.mean,
            p99_latency=self.latency_hist.percentile(99),
            max_latency=self.latency.max if self.latency.count else 0.0,
            power_mw=self.power_avg_mw if self.power_avg_mw is not None else 0.0,
            labeled_injected=self.labeled_injected,
            labeled_delivered=self.labeled_delivered,
            delivered_measure=self.delivered_measure,
            extra=dict(extra),
        )


@dataclass
class RunResult:
    """Per-run metrics: the three y-axes of Figures 5 and 6."""

    #: Accepted traffic, packets/node/cycle.
    throughput: float
    #: Offered traffic actually injected, packets/node/cycle.
    offered: float
    #: Mean labeled-packet latency, cycles.
    avg_latency: float
    p99_latency: float
    max_latency: float
    #: Average optical-plane power over the measurement window, mW.
    power_mw: float
    labeled_injected: int = 0
    labeled_delivered: int = 0
    delivered_measure: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def acceptance(self) -> float:
        """Delivered / offered during the measurement window."""
        return self.throughput / self.offered if self.offered > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict; exact float round trip (Python repr shortest-
        float guarantees), so serialize → deserialize is bit-identical.
        Used by the on-disk run cache and the sweep fingerprints."""
        return {
            "throughput": self.throughput,
            "offered": self.offered,
            "avg_latency": self.avg_latency,
            "p99_latency": self.p99_latency,
            "max_latency": self.max_latency,
            "power_mw": self.power_mw,
            "labeled_injected": self.labeled_injected,
            "labeled_delivered": self.labeled_delivered,
            "delivered_measure": self.delivered_measure,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        fields = dict(data)
        extra = fields.pop("extra", {})
        return cls(extra=dict(extra), **fields)  # type: ignore[arg-type]

    def summary(self) -> str:
        return (
            f"thr={self.throughput:.5f} pkt/node/cyc  "
            f"lat={self.avg_latency:.1f} cyc  power={self.power_mw:.1f} mW"
        )
