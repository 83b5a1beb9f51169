"""Link controllers and optical channel state.

The paper attaches a Link Controller (LC) to every optical transmitter /
receiver pair.  In the fast engine an :class:`OpticalChannel` bundles, for
one (wavelength, destination) channel:

* the LC's hardware counters (``Link_util`` busy signal per window),
* the DPM state machine (power level, DVS stall, sleep/wake),
* the instantaneous power pushed into the system energy accountant,
* the dispatch hooks the engine's channel-server process uses.

Ownership (which source board drives the channel) lives in the
:class:`~repro.optics.srs.SuperHighway`; the channel reads it on every
dispatch so a DBR grant takes effect at the next packet boundary — the
paper's requirement that reconfiguration never corrupts in-flight packets.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.core.dpm import DpmAction, LinkWindowStats
from repro.power.levels import PowerLevel
from repro.sim.events import Waitable
from repro.sim.stats import TimeWeighted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import FastEngine

__all__ = ["OpticalChannel"]


class OpticalChannel:
    """State + LC for one (λ, destination board) optical channel."""

    __slots__ = (
        "engine",
        "wavelength",
        "dest",
        "key",
        "level",
        "sleeping",
        "stall_until",
        "busy",
        "busy_signal",
        "work_signal",
        "idle",
        "parked",
        "packets_served",
        "dpm_transitions",
        "sleeps",
        "wakes",
        "util_smoothed",
        "_owner_row",
        "_link_power",
        "_power",
        "_service",
        "_mw",
    )

    def __init__(self, engine: "FastEngine", wavelength: int, dest: int) -> None:
        self.engine = engine
        self.wavelength = wavelength
        self.dest = dest
        self.key = (wavelength, dest)
        cfg = engine.config
        self.level: PowerLevel = cfg.power_levels.highest
        #: DPM sleep (laser gated while idle); wakes on the next packet.
        self.sleeping = False
        #: Link disabled until this time (DVS transition / wake penalty).
        self.stall_until = 0.0
        self.busy = False
        #: Link_util counter: busy fraction per window.
        self.busy_signal = TimeWeighted(engine.sim.now, 0.0)
        #: Dispatch signal the legacy coroutine channel process parks on.
        self.work_signal: Optional[Waitable] = None
        self.idle = True
        #: Callback engine: the channel is waiting for a poke (no pending
        #: dispatch event).  Plays the role of ``idle`` + ``work_signal``
        #: without allocating a waitable per idle period.
        self.parked = True
        self.packets_served = 0
        self.dpm_transitions = 0
        self.sleeps = 0
        self.wakes = 0
        #: EWMA of window link utilization (None until the first window).
        self.util_smoothed: Optional[float] = None
        # Per-packet power pushes read the SRS ownership row and write the
        # accountant's signal for this channel directly.
        self._owner_row = engine.srs.owner[dest]
        self._link_power = cfg.link_power
        self._power = engine.accountant.signal(self.key, engine.sim.now)
        self._on_level()
        self._push_power()

    # ------------------------------------------------------------------
    @property
    def owner(self) -> Optional[int]:
        """Source board currently owning this channel (None = dark)."""
        return self._owner_row[self.wavelength]

    @property
    def enabled(self) -> bool:
        """Laser lit: owned and not DPM-slept."""
        return self.owner is not None and not self.sleeping

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def _push_power(self) -> None:
        enabled = not self.sleeping and self._owner_row[self.wavelength] is not None
        mw = self._link_power.instantaneous_mw(enabled, self.level, self.busy)
        self._power.update(self.engine.sim.now, mw)

    def set_busy(self, busy: bool) -> None:
        """Start or end a packet on the wire: one step of the busy signal
        and of the power signal, with :meth:`_push_power`'s arithmetic."""
        if busy == self.busy:
            return
        self.busy = busy
        now = self.engine.sim.now
        self.busy_signal.update(now, 1.0 if busy else 0.0)
        if self.sleeping or self._owner_row[self.wavelength] is None:
            self._power.update(now, 0.0)  # a dark or slept laser draws nothing
        else:
            self._power.update(now, self._mw[busy])

    def _on_level(self) -> None:
        """Cache what depends on the power level alone: the lit draw
        (idle, busy) and the serialization time per packet size."""
        #: size_bytes -> serialization cycles at the current level.
        self._service: Dict[int, float] = {}
        self._mw = (
            self._link_power.instantaneous_mw(True, self.level, False),
            self._link_power.instantaneous_mw(True, self.level, True),
        )

    # ------------------------------------------------------------------
    # LC hardware counters
    # ------------------------------------------------------------------
    def window_stats(self) -> LinkWindowStats:
        """Snapshot the LC counters for the window that just ended."""
        now = self.engine.sim.now
        link_util = min(1.0, self.busy_signal.window(now))
        owner = self.owner
        if owner is None:
            return LinkWindowStats(0.0, 0.0, True)
        queue = self.engine.pair_queue(owner, self.dest)
        return LinkWindowStats(
            link_util=link_util,
            buffer_util=min(1.0, queue.buffer_util(now)),
            queue_empty=len(queue) == 0,
        )

    def reset_window(self) -> None:
        self.busy_signal.reset_window(self.engine.sim.now)

    def smoothed_util(self, window_util: float) -> float:
        """Fold this window's utilization into the EWMA and return the
        value the DPM rule should see (equals ``window_util`` when the
        policy's ``dpm_smoothing`` is 0 — the paper's raw counter)."""
        alpha = self.engine.config.policy.dpm_smoothing
        if alpha <= 0.0:
            self.util_smoothed = window_util
            return window_util
        if self.util_smoothed is None:
            self.util_smoothed = window_util
        else:
            self.util_smoothed = (
                alpha * self.util_smoothed + (1.0 - alpha) * window_util
            )
        return self.util_smoothed

    # ------------------------------------------------------------------
    # DPM actuation
    # ------------------------------------------------------------------
    def apply_dpm(self, action: DpmAction) -> None:
        """Apply a §3.1 decision: level step, sleep, or hold.

        Level changes inject the bit-rate control packet: the link stalls
        for the DVS transition and the receiver re-clocks (Figure 2a's
        one-to-one transmitter/receiver mapping).
        """
        cfg = self.engine.config
        now = self.engine.sim.now
        if action is DpmAction.SLEEP:
            if not self.sleeping and self.owner is not None:
                self.sleeping = True
                self.sleeps += 1
                rx = self.engine.srs.receiver(self.dest, self.wavelength)
                rx.set_powered(False)
                self._push_power()
            return
        if action is DpmAction.HOLD:
            return
        table = cfg.power_levels
        target = table.up(self.level) if action is DpmAction.UP else table.down(self.level)
        if target is self.level:
            return
        stall = cfg.transitions.stall_cycles(table, self.level, target)
        self.level = target
        self._on_level()
        self.stall_until = max(self.stall_until, now + stall)
        self.dpm_transitions += 1
        rx = self.engine.srs.receiver(self.dest, self.wavelength)
        if rx.powered:
            rx.reclock(target.bit_rate_gbps, now, stall)
        self._push_power()

    def wake(self) -> float:
        """Leave DPM sleep; returns the wake stall in cycles."""
        if not self.sleeping:
            return 0.0
        self.sleeping = False
        self.wakes += 1
        rx = self.engine.srs.receiver(self.dest, self.wavelength)
        rx.set_powered(True)
        self._push_power()
        return float(self.engine.config.wake_cycles)

    def on_ownership_change(self) -> None:
        """Called when DBR re-assigns (or darkens) this channel."""
        # A newly granted channel starts awake; a darkened one draws zero.
        if self.sleeping and self.owner is not None:
            self.sleeping = False
        rx = self.engine.srs.receiver(self.dest, self.wavelength)
        rx.set_powered(self.owner is not None)
        self._push_power()

    # ------------------------------------------------------------------
    def service_cycles(self, size_bytes: int) -> float:
        """Packet serialization time at the current level."""
        cycles = self._service.get(size_bytes)
        if cycles is None:
            cycles = self._service[size_bytes] = (
                self.engine.config.optical.packet_service_cycles(
                    size_bytes, self.level.bit_rate_gbps
                )
            )
        return cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dark" if self.owner is None else (
            "sleeping" if self.sleeping else ("busy" if self.busy else "idle")
        )
        return (
            f"<OpticalChannel λ{self.wavelength}->b{self.dest} "
            f"owner={self.owner} {self.level.name} {state}>"
        )
