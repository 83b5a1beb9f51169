"""Generator-based simulation processes.

A *process* is a Python generator driven by the kernel.  At every ``yield``
the process hands the kernel a :class:`~repro.sim.events.Waitable`; the
process resumes — receiving the waitable's value as the result of the
``yield`` expression — when that waitable fires::

    def node(sim, queue):
        while True:
            packet = yield queue.get()      # blocks until an item arrives
            yield sim.timeout(packet.size)  # hold for the service time

Processes are themselves waitables: they fire with the generator's return
value, so one process can ``yield`` another to join it.  The coarse,
sparse-in-time parts of the models run as processes (injection draws,
optical serialization, DPM windows); the per-cycle electrical substrate
does not (see :mod:`repro.network.fabric`).
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.errors import ProcessError
from repro.sim.events import Waitable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["Process"]


class Process(Waitable):
    """A running generator; fires (as a waitable) when the generator returns."""

    __slots__ = ("generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, None],
        name: str = "",
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Start the process at the current time, after already-queued events.
        sim.schedule_fast(0.0, self._step, None)

    # ------------------------------------------------------------------
    def _on_wait_fired(self, waitable: Waitable) -> None:
        self._step(waitable.value)

    def _step(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        if not isinstance(target, Waitable):
            err = ProcessError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Waitable objects (timeout/get/put/event/...)"
            )
            self.generator.close()
            raise err
        target.wait(self._on_wait_fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
