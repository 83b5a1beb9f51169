"""System-level energy accounting.

An :class:`EnergyAccountant` owns one time-weighted power signal per optical
channel and integrates the system total.  The engines call
:meth:`set_channel_power` whenever a link's state changes (busy/idle,
level change, laser on/off); reports read average milliwatts over the
measurement window — the y-axis of the paper's power plots.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.errors import MeasurementError
from repro.sim.stats import TimeWeighted

__all__ = ["EnergyAccountant"]


class EnergyAccountant:
    """Integrates per-channel instantaneous power into system energy."""

    def __init__(self, cycle_ns: float = 2.5) -> None:
        if cycle_ns <= 0:
            raise MeasurementError(f"cycle_ns must be positive, got {cycle_ns}")
        self.cycle_ns = cycle_ns
        self._signals: Dict[Hashable, TimeWeighted] = {}

    # ------------------------------------------------------------------
    def set_channel_power(self, key: Hashable, now: float, mw: float) -> None:
        """Channel ``key`` draws ``mw`` from ``now`` until further notice."""
        if mw < 0:
            raise MeasurementError(f"negative power {mw} for {key!r}")
        sig = self._signals.get(key)
        if sig is None:
            self._signals[key] = TimeWeighted(now, mw)
        else:
            sig.update(now, mw)

    def signal(self, key: Hashable, now: float) -> TimeWeighted:
        """Channel ``key``'s power signal, registered at zero draw from
        ``now`` if new.  A caller that pushes power on every state change
        updates it directly (``signal.update(now, mw)`` is what
        :meth:`set_channel_power` does for a known channel)."""
        sig = self._signals.get(key)
        if sig is None:
            sig = self._signals[key] = TimeWeighted(now, 0.0)
        return sig

    def channel_power(self, key: Hashable) -> float:
        """Current draw of one channel (0 for unknown channels)."""
        sig = self._signals.get(key)
        return sig.value if sig is not None else 0.0

    # ------------------------------------------------------------------
    def total_now_mw(self) -> float:
        """Instantaneous system power."""
        return sum(sig.value for sig in self._signals.values())

    def average_mw(self, now: float) -> float:
        """All-history average system power up to ``now``."""
        return sum(sig.average(now) for sig in self._signals.values())

    def window_average_mw(self, now: float) -> float:
        """Average system power since the last window reset."""
        return sum(sig.window(now) for sig in self._signals.values())

    def reset_window(self, now: float) -> None:
        """Start the measurement window (called when warm-up ends)."""
        for sig in self._signals.values():
            sig.reset_window(now)

    def window_energy_mj(self, now: float, window_start: float) -> float:
        """Energy over [window_start, now] in millijoules."""
        span_cycles = now - window_start
        if span_cycles < 0:
            raise MeasurementError("window end precedes start")
        seconds = span_cycles * self.cycle_ns * 1e-9
        return self.window_average_mw(now) * seconds

    def per_channel_average_mw(self, now: float) -> Dict[Hashable, float]:
        """Window-average draw per channel (diagnostics/reporting)."""
        return {k: sig.window(now) for k, sig in self._signals.items()}

    def __len__(self) -> int:
        return len(self._signals)
