"""Credit-based flow control.

Table 1 of the paper: credit-based flow control, single-flit buffers, and a
one-cycle channel delay for credits.  Each router *output* VC, and each
send port, holds a credit count that mirrors the free space of the
downstream input VC buffer: a plain integer in the live router and NIs,
checked in place, and a :class:`CreditCounter` in the frozen
process-driven oracle.  A credit travels back upstream as a
:data:`CreditReturn` entry on the fabric's credit due-queue
(:mod:`repro.network.fabric`), which applies it once the configured
latency (at least one cycle) has passed.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.errors import SimulationError

__all__ = ["CreditCounter", "CreditReturn"]

#: One pending credit restore: (restore_fn, vc).
CreditReturn = Tuple[Callable[[int], None], int]


class CreditCounter:
    """Tracks credits (free downstream buffer slots) for one output VC."""

    __slots__ = ("initial", "credits")

    def __init__(self, initial: int) -> None:
        if initial < 0:
            raise SimulationError(f"negative initial credits {initial}")
        self.initial = initial
        #: Credits in hand; change it only through consume/restore.
        self.credits = initial

    @property
    def has_credit(self) -> bool:
        return self.credits > 0

    def consume(self) -> None:
        """Spend one credit (a flit departed downstream)."""
        if self.credits <= 0:
            raise SimulationError("consumed a credit while at zero")
        self.credits -= 1

    def restore(self) -> None:
        """Return one credit (the downstream buffer freed a slot)."""
        if self.credits >= self.initial:
            raise SimulationError(
                f"credit overflow: restore past initial count {self.initial}"
            )
        self.credits += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CreditCounter {self.credits}/{self.initial}>"
