"""Arbiters — the allocation primitives inside the router.

Two classic designs (Dally & Towles ch. 18–19):

* :class:`RoundRobinArbiter` — rotating-priority, starvation-free.
* :class:`MatrixArbiter` — least-recently-served, strong fairness.

Both pick one winner from a request bit-set per invocation.  A
:class:`SeparableAllocator` composes per-output and per-input arbiters into
the input-first separable allocator used for VC and switch allocation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["RoundRobinArbiter", "MatrixArbiter", "SeparableAllocator"]


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``n`` requesters."""

    __slots__ = ("n", "_pointer")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"arbiter needs n >= 1, got {n}")
        self.n = n
        self._pointer = 0

    def arbitrate(self, requests: Sequence[bool]) -> Optional[int]:
        """Grant one of the asserted ``requests``; ``None`` if all idle.

        The granted requester becomes lowest priority for the next round:
        the scan runs from the pointer to the end, then wraps to the start.
        """
        n = self.n
        if len(requests) != n:
            raise ConfigurationError(
                f"expected {n} request lines, got {len(requests)}"
            )
        pointer = self._pointer
        for idx in range(pointer, n):
            if requests[idx]:
                self._pointer = idx + 1 if idx + 1 < n else 0
                return idx
        for idx in range(pointer):
            if requests[idx]:
                self._pointer = idx + 1
                return idx
        return None

    def grant(self, requesters: Sequence[int]) -> int:
        """Grant one of ``requesters`` — a non-empty, ascending list of
        requester ids — exactly as :meth:`arbitrate` would on their mask:
        the first id at or after the pointer, else the first id."""
        pointer = self._pointer
        idx = requesters[0]
        if idx < pointer:
            i = bisect_left(requesters, pointer)
            if i < len(requesters):
                idx = requesters[i]
        self._pointer = idx + 1 if idx + 1 < self.n else 0
        return idx


class MatrixArbiter:
    """Least-recently-served arbiter using a priority matrix.

    ``_prio[i][j]`` means *i beats j*.  After a grant, the winner loses to
    everyone (its row is cleared, its column set).
    """

    __slots__ = ("n", "_prio")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"arbiter needs n >= 1, got {n}")
        self.n = n
        # Upper-triangular start: lower index initially wins.
        self._prio = [[i < j for j in range(n)] for i in range(n)]

    def arbitrate(self, requests: Sequence[bool]) -> Optional[int]:
        if len(requests) != self.n:
            raise ConfigurationError(
                f"expected {self.n} request lines, got {len(requests)}"
            )
        winner = None
        for i in range(self.n):
            if not requests[i]:
                continue
            beaten = any(
                requests[j] and self._prio[j][i] for j in range(self.n) if j != i
            )
            if not beaten:
                winner = i
                break
        if winner is not None:
            for j in range(self.n):
                if j != winner:
                    self._prio[winner][j] = False
                    self._prio[j][winner] = True
        return winner


class SeparableAllocator:
    """Input-first separable allocator for ``n_in`` × ``n_out`` requests.

    Stage 1: each input picks one of its requested outputs (round-robin).
    Stage 2: each output picks one of the surviving inputs (round-robin).
    Returns the granted ``(input, output)`` pairs — a matching (each input
    and each output appears at most once).
    """

    __slots__ = ("n_in", "n_out", "_input_stage", "_output_stage")

    def __init__(self, n_in: int, n_out: int) -> None:
        if n_in < 1 or n_out < 1:
            raise ConfigurationError("allocator dims must be >= 1")
        self.n_in = n_in
        self.n_out = n_out
        self._input_stage = [RoundRobinArbiter(n_out) for _ in range(n_in)]
        self._output_stage = [RoundRobinArbiter(n_in) for _ in range(n_out)]

    def allocate(self, requests: Dict[int, List[int]]) -> List[Tuple[int, int]]:
        """``requests[input] = [outputs it wants]`` → granted pairs."""
        # Stage 1 — input arbitration.
        survivors: Dict[int, List[bool]] = {
            out: [False] * self.n_in for out in range(self.n_out)
        }
        for inp, outs in requests.items():
            if not outs:
                continue
            if inp >= self.n_in:
                raise ConfigurationError(f"input {inp} out of range (n_in={self.n_in})")
            mask = [False] * self.n_out
            for out in outs:
                if out >= self.n_out:
                    raise ConfigurationError(
                        f"output {out} out of range (n_out={self.n_out})"
                    )
                mask[out] = True
            chosen = self._input_stage[inp].arbitrate(mask)
            if chosen is not None:
                survivors[chosen][inp] = True
        # Stage 2 — output arbitration.
        grants: List[Tuple[int, int]] = []
        for out in range(self.n_out):
            winner = self._output_stage[out].arbitrate(survivors[out])
            if winner is not None:
                grants.append((winner, out))
        return grants
