"""Host-speed reference sampled *while* a pass runs.

The ledger's hosts are small shared VMs that, for minutes at a time, run
the same code 1.3–2× slower (README: noise) — longer than any best-of-N
inside a 15-second run can see through.  So a background thread runs a
fixed sub-millisecond kernel every 50 ms, timed in the thread's own CPU
time (being descheduled does not count, a slow core does), and a pass's
host time is reported in seconds *of the reference host*::

    measured × NOMINAL_S / mean kernel time during the pass

The kernel shares no code with ``src/repro``, so a change to the program
cannot move it; a slow host moves both.  It costs the pass about 2 % (the
kernel holds the interpreter lock while it runs), traced or not.
"""

from __future__ import annotations

import heapq
import statistics
import threading
from time import perf_counter, thread_time
from typing import List, Tuple

__all__ = ["NOMINAL_S", "HostSampler"]

#: CPU time of one kernel on the calm sizing host (a 2.1 GHz Xeon vCPU).
#: It only fixes the scale: on a host this fast, reference seconds are
#: measured seconds.
NOMINAL_S = 0.00078

_PERIOD_S = 0.05


def _kernel() -> int:
    """A toy event loop — heap of tuples, integer arithmetic — like the
    interpreter work the engines spend their time in."""
    heap = [(i * 7919 % 1000, i) for i in range(64)]
    heapq.heapify(heap)
    total = 0
    for _ in range(1500):
        when, who = heapq.heappop(heap)
        total += when
        heapq.heappush(heap, (when + who * 31 % 97 + 1, who))
    return total


class HostSampler:
    """``with HostSampler() as host: ... host.factor(start, end)``."""

    def __init__(self) -> None:
        #: (perf_counter when taken, kernel CPU seconds).
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="host-sampler", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(_PERIOD_S):
            taken = perf_counter()
            start = thread_time()
            _kernel()
            self.samples.append((taken, thread_time() - start))

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Multiplier that turns host seconds measured between two
        ``perf_counter`` readings into reference-host seconds (1.0 when the
        interval was too short to be sampled)."""
        window = [cpu for taken, cpu in self.samples if start <= taken <= end]
        return NOMINAL_S / statistics.mean(window) if window else 1.0
