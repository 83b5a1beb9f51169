"""Deterministic random-number streams.

Every stochastic entity (each node's injector, each pattern generator) gets
an *independent, named* stream derived from a single experiment seed, so

* runs are bit-reproducible for a given seed, and
* changing one entity's draws never perturbs another's (common random
  numbers across configurations — essential for comparing the four
  NP/P × NB/B configurations at identical injected workloads).

Streams use :class:`numpy.random.Generator` (PCG64) seeded via
:class:`numpy.random.SeedSequence` with a ``spawn_key`` derived from the
*full byte sequence* of the stream name.  Earlier revisions keyed streams
on ``zlib.crc32(name)``, which maps distinct names to the same 32-bit key
with birthday-paradox probability (~1 % at 10k streams) — a silent loss of
stream independence.  The spawn-key derivation is injective in the name, so
distinct names can never share a stream state, while the master-seed
semantics (one integer seed reproduces the whole experiment) are unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Tuple, Union

import numpy as np
import numpy.typing as npt
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RngRegistry",
    "geometric_gap",
    "geometric_gap_array",
    "integer_array",
]

#: Domain-separation tags so ``stream(name)`` and ``spawn(name)`` can never
#: derive the same SeedSequence from one name.
_STREAM_DOMAIN = 0
_SPAWN_DOMAIN = 1


class RngRegistry:
    """Factory for named, independent PCG64 streams under one master seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def _derive(self, name: str, domain: int) -> "_DerivedSeed":
        """SeedSequence keyed on the full name bytes (collision-free)."""
        return _derived_seed(self.seed, domain, name)

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.Generator(
                np.random.PCG64(self._derive(name, _STREAM_DOMAIN))
            )
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        child_seed = int(
            self._derive(name, _SPAWN_DOMAIN).generate_state(1, np.uint64)[0]
        )
        return RngRegistry(seed=child_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.seed} streams={len(self._streams)}>"


_Words = npt.NDArray[Union[np.uint32, np.uint64]]


class _DerivedSeed(ISeedSequence):
    """One (seed, domain, name)'s SeedSequence, with its output memoised.

    A sweep builds the same 16-256 streams for every run of a seed, and
    most of a stream's set-up is deriving its SeedSequence (hashing the
    whole spawn key) and generating the words that seed the bit
    generator.  Both are pure functions of (seed, domain, name), so they
    are computed once per process (:func:`_derived_seed`) and every
    :meth:`RngRegistry.stream` seeds a fresh ``PCG64`` from the same
    words: the stream is the one ``PCG64(SeedSequence(...))`` gives.  The
    words are handed out read-only; a bit generator copies them into its
    own state and never writes back.
    """

    __slots__ = ("_seq", "_words")

    def __init__(self, seq: np.random.SeedSequence) -> None:
        self._seq = seq
        self._words: Dict[Tuple[int, str], _Words] = {}

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> _Words:
        key = (n_words, np.dtype(dtype).str)
        words = self._words.get(key)
        if words is None:
            words = self._words[key] = self._seq.generate_state(n_words, dtype)
            words.flags.writeable = False
        return words


@lru_cache(maxsize=4096)
def _derived_seed(seed: int, domain: int, name: str) -> _DerivedSeed:
    """The memoised SeedSequence of one (seed, domain, name)."""
    return _DerivedSeed(
        np.random.SeedSequence(seed, spawn_key=(domain, *name.encode("utf-8")))
    )


def geometric_gap(rng: np.random.Generator, p: float) -> int:
    """Cycles until the next Bernoulli(p) success, inclusive (>= 1).

    Sampling the inter-arrival gap directly is equivalent to flipping a
    Bernoulli coin every cycle but costs O(1) per packet instead of O(1)
    per cycle — the key to simulating long runs in pure Python.
    """
    if p <= 0.0:
        return 1 << 30  # effectively never
    if p >= 1.0:
        return 1
    return int(rng.geometric(p))


def geometric_gap_array(
    rng: np.random.Generator, p: float, n: int
) -> npt.NDArray[np.int64]:
    """``n`` Bernoulli(p) gaps in one vectorized draw.

    Bit-identical to ``n`` successive :func:`geometric_gap` calls: numpy
    fills the array element by element from the same bit stream, so the
    value sequence is independent of how the draws are chunked.  The
    degenerate rates never touch the generator, exactly like the scalar
    path.  This is the sanctioned vectorized-draw primitive for the batch
    engine (SIM008 keeps RNG machinery out of every other module).
    """
    if p <= 0.0:
        return np.full(n, 1 << 30, dtype=np.int64)
    if p >= 1.0:
        return np.ones(n, dtype=np.int64)
    return rng.geometric(p, size=n).astype(np.int64, copy=False)


def integer_array(
    rng: np.random.Generator, low: int, high: int, n: int
) -> npt.NDArray[np.int64]:
    """``n`` draws of ``rng.integers(low, high)`` as one vectorized call.

    Counterpart of :func:`geometric_gap_array` for destination draws.
    Note the *scalar* uniform-traffic path interleaves one dest draw with
    each gap draw on the same stream, so chunked draws are NOT
    stream-identical to it — callers get statistically equivalent, not
    bit-identical, uniform traffic (permutation patterns draw no dests and
    stay bit-identical).
    """
    return rng.integers(low, high, size=n).astype(np.int64, copy=False)
