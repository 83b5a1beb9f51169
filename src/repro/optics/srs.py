"""Scalable Remote Optical Super-Highway (SRS).

The structural state of E-RAPID's optical plane: every board's transmitter
array, every board's fixed-λ receivers, the passive couplers, and the
**wavelength ownership map** — for each destination board *d* and each
wavelength λ, which source board currently owns the (λ, d) channel.

The ownership map *is* the bandwidth allocation: DBR (§3.2) re-assigns
owners; the SRS turns the corresponding port lasers on/off and enforces the
coupler collision invariant.  The SRS holds no simulation processes — the
engines drive it and read it.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import WavelengthError
from repro.network.topology import ERapidTopology
from repro.optics.coupler import PassiveCoupler, validate_coupler_plane
from repro.optics.optical_link import ChannelId
from repro.optics.receiver import OpticalReceiver
from repro.optics.rwa import StaticRWA
from repro.optics.transmitter import TransmitterArray

__all__ = ["SuperHighway"]

#: Shared empty result for pairs owning no channels (avoids a list
#: allocation per miss on the owner index's hottest query).
_NO_WAVELENGTHS: List[int] = []

#: (boards, wavelengths) shapes whose static plane has been validated.
_VALIDATED: Set[Tuple[int, int]] = set()


@lru_cache(maxsize=None)
def _static_channels(boards: int) -> Tuple[Tuple[int, int, int], ...]:
    """(src, wavelength, dst) of every channel the static RWA lights."""
    rwa = StaticRWA(boards)
    return tuple(
        (s, rwa.wavelength_for(s, d), d)
        for s in range(boards)
        for d in range(boards)
        if s != d
    )


class SuperHighway:
    """All-optical inter-board plane for an R(1, B, D) system."""

    def __init__(self, topology: ERapidTopology) -> None:
        self.topology = topology
        self.boards = topology.boards
        self.wavelengths = topology.wavelengths
        self.rwa = StaticRWA(self.boards)
        self.tx_arrays: List[TransmitterArray] = [
            TransmitterArray(b, self.wavelengths, self.boards)
            for b in range(self.boards)
        ]
        self.receivers: List[List[OpticalReceiver]] = [
            [OpticalReceiver(b, w) for w in range(self.wavelengths)]
            for b in range(self.boards)
        ]
        self.couplers: List[PassiveCoupler] = [
            PassiveCoupler(d, self.wavelengths) for d in range(self.boards)
        ]
        #: owner[d][λ] — source board holding channel (λ, d); None = dark.
        self.owner: List[List[Optional[int]]] = [
            [None] * self.wavelengths for _ in range(self.boards)
        ]
        #: Hard-failed channels (dead laser array port / dead receiver):
        #: permanently dark until repaired, and never grantable.
        self.failed: set = set()
        self.grants = 0
        #: Owner index: (src, dst) -> sorted wavelengths src currently owns
        #: toward dst.  Maintained by :meth:`grant` (failures route through
        #: it) so per-pair channel lookups are O(owned) instead of O(W).
        self._owned: Dict[Tuple[int, int], List[int]] = {}
        # A fresh plane is dark and unowned: light the static channels.
        # Validation runs once per plane shape; reset_to_static() always
        # validates.
        self._light_static()
        shape = (self.boards, self.wavelengths)
        if shape not in _VALIDATED:
            self.validate()
            _VALIDATED.add(shape)

    # ------------------------------------------------------------------
    # Bring-up / reset
    # ------------------------------------------------------------------
    def reset_to_static(self) -> None:
        """Restore the paper's static RWA (Figure 1)."""
        for b in range(self.boards):
            for tx in self.tx_arrays[b].transmitters:
                for p in range(self.boards):
                    tx.set_port(p, False)
        for d in range(self.boards):
            for w in range(self.wavelengths):
                self.owner[d][w] = None
        self._owned.clear()
        self._light_static()
        self.validate()

    def _light_static(self) -> None:
        """Light the static RWA's channels on a dark, unowned plane."""
        for s, w, d in _static_channels(self.boards):
            if (w, d) in self.failed:
                continue  # failed channels stay dark across resets
            self.tx_arrays[s][w].set_port(d, True)
            self.owner[d][w] = s
            self._owned[(s, d)] = [w]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def owner_of(self, dst: int, wavelength: int) -> Optional[int]:
        self._check(dst, wavelength)
        return self.owner[dst][wavelength]

    def owned_wavelengths(self, src: int, dst: int) -> List[int]:
        """Wavelengths ``src`` currently owns toward ``dst``, ascending.

        An O(1) dict hit on the maintained owner index (the returned list
        is the live index entry — callers must not mutate it).
        """
        return self._owned.get((src, dst)) or _NO_WAVELENGTHS

    def channels_from(self, src: int, dst: int) -> List[ChannelId]:
        """Every channel currently owned by ``src`` toward ``dst``."""
        self._check(dst, 0)
        self._check(src, 0)
        return [ChannelId(src, w, dst) for w in self.owned_wavelengths(src, dst)]

    def channels_into(self, dst: int) -> List[ChannelId]:
        """Every live channel arriving at ``dst``."""
        self._check(dst, 0)
        return [
            ChannelId(owner, w, dst)
            for w, owner in enumerate(self.owner[dst])
            if owner is not None
        ]

    def all_channels(self) -> List[ChannelId]:
        return [ch for d in range(self.boards) for ch in self.channels_into(d)]

    def lasers_on(self) -> int:
        """Total lit port lasers across all boards."""
        return sum(array.lasers_on() for array in self.tx_arrays)

    def receiver(self, board: int, wavelength: int) -> OpticalReceiver:
        self._check(board, wavelength)
        return self.receivers[board][wavelength]

    # ------------------------------------------------------------------
    # Reconfiguration (the Link-Response-stage actuation)
    # ------------------------------------------------------------------
    def grant(self, dst: int, wavelength: int, new_owner: Optional[int]) -> None:
        """Re-assign channel (λ=``wavelength``, ``dst``) to ``new_owner``.

        ``None`` darkens the channel (dynamic link shutdown).  The old
        owner's port laser is switched off, the new owner's on, and the
        coupler plane re-validated.  Self-loops are rejected: a board never
        needs an optical channel to itself.
        """
        self._check(dst, wavelength)
        if new_owner is not None:
            self._check(new_owner, 0)
            if new_owner == dst:
                raise WavelengthError(
                    f"board {dst} cannot own an optical channel to itself"
                )
        if new_owner is not None and (wavelength, dst) in self.failed:
            raise WavelengthError(
                f"channel (λ{wavelength}, board {dst}) is failed; repair it "
                "before granting"
            )
        old_owner = self.owner[dst][wavelength]
        if old_owner == new_owner:
            return
        if old_owner is not None:
            self.tx_arrays[old_owner][wavelength].set_port(dst, False)
            self._owned[(old_owner, dst)].remove(wavelength)
        if new_owner is not None:
            self.tx_arrays[new_owner][wavelength].set_port(dst, True)
            insort(self._owned.setdefault((new_owner, dst), []), wavelength)
        self.owner[dst][wavelength] = new_owner
        self.grants += 1
        self.couplers[dst].validate(self.tx_arrays)

    def fail_channel(self, dst: int, wavelength: int) -> Optional[int]:
        """Hard-fail channel (λ, dst): laser off, unowned, ungrantable.

        Returns the owner that lost the channel (None if it was dark).
        """
        self._check(dst, wavelength)
        old_owner = self.owner[dst][wavelength]
        self.grant(dst, wavelength, None)
        self.failed.add((wavelength, dst))
        return old_owner

    def repair_channel(self, dst: int, wavelength: int) -> None:
        """Clear a failure; the channel becomes grantable again (it stays
        dark until DBR or a reset re-assigns it)."""
        self._check(dst, wavelength)
        self.failed.discard((wavelength, dst))

    def is_failed(self, dst: int, wavelength: int) -> bool:
        self._check(dst, wavelength)
        return (wavelength, dst) in self.failed

    def validate(self) -> List[ChannelId]:
        """Validate the whole coupler plane against the ownership map."""
        live = validate_coupler_plane(self.tx_arrays, self.boards, self.wavelengths)
        expected = {
            (ch.src, ch.wavelength, ch.dst) for ch in self.all_channels()
        }
        if set(live) != expected:  # pragma: no cover - internal consistency
            raise WavelengthError(
                f"laser plane desynchronized from ownership map: "
                f"lasers={sorted(live)} owners={sorted(expected)}"
            )
        indexed = {
            (s, w, d) for (s, d), ws in self._owned.items() for w in ws
        }
        if indexed != expected:  # pragma: no cover - internal consistency
            raise WavelengthError(
                f"owner index desynchronized from ownership map: "
                f"index={sorted(indexed)} owners={sorted(expected)}"
            )
        return [ChannelId(*t) for t in live]

    # ------------------------------------------------------------------
    def _check(self, board: int, wavelength: int) -> None:
        if not 0 <= board < self.boards:
            raise WavelengthError(f"board {board} out of range [0,{self.boards})")
        if not 0 <= wavelength < self.wavelengths:
            raise WavelengthError(
                f"wavelength {wavelength} out of range [0,{self.wavelengths})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SuperHighway B={self.boards} W={self.wavelengths} "
            f"lasers_on={self.lasers_on()}>"
        )
