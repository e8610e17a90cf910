"""Multimode bosonic Fock states and sparse superpositions over them.

States are kept sparse (occupation vector -> complex amplitude) because every
scenario in this package involves at most a few photons in a few modes.
Terms with ``|amplitude| <= PRUNE`` are dropped when a state is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

PRUNE = 1e-15


@dataclass(frozen=True)
class FockState:
    """Occupation-number basis state |n1, n2, ...> over a fixed set of modes."""

    occupations: tuple[int, ...]

    @property
    def modes(self) -> int:
        return len(self.occupations)

    @property
    def total(self) -> int:
        """Total photon number."""
        return sum(self.occupations)

    def __str__(self) -> str:
        return "|" + ",".join(str(n) for n in self.occupations) + ">"


def is_whole(n) -> bool:
    """Whether ``n`` equals an integer; an infinity or NaN does not."""
    try:
        return n == int(n)
    except (OverflowError, ValueError):
        return False


def make_fock(occupations: Iterable[int]) -> FockState:
    """Validate an occupation vector and wrap it as a FockState.

    Entries must be non-negative integers and the vector must be non-empty.
    """
    occ = tuple(occupations)
    if not occ:
        raise ValueError("occupation vector must be non-empty")
    cleaned = []
    for n in occ:
        if not is_whole(n) or n < 0:
            raise ValueError(f"occupation numbers must be non-negative integers, got {n!r}")
        cleaned.append(int(n))
    return FockState(tuple(cleaned))


def _as_fock(key) -> FockState:
    return key if isinstance(key, FockState) else make_fock(key)


@dataclass(frozen=True)
class PureState:
    """Sparse superposition of Fock states sharing one mode count.

    Instances are immutable by convention: build them with :func:`pure_state`
    (which validates, coerces and prunes) and treat ``terms`` as read-only.
    """

    terms: dict[FockState, complex]
    modes: int

    def amplitude(self, key) -> complex:
        """Amplitude of one basis state (0 if absent)."""
        return self.terms.get(_as_fock(key), 0j)

    def __iter__(self) -> Iterator[tuple[FockState, complex]]:
        return iter(self.terms.items())


def pure_state(terms: Mapping, *, modes: int | None = None) -> PureState:
    """Build a PureState from a mapping of occupation vectors to amplitudes.

    Keys may be FockStates or plain integer sequences.  Terms with
    |amplitude| <= ``PRUNE`` are dropped.  The result is not normalized.
    """
    clean: dict[FockState, complex] = {}
    for key, amp in terms.items():
        fock = _as_fock(key)
        if modes is None:
            modes = fock.modes
        elif fock.modes != modes:
            raise ValueError(
                f"mode count mismatch: expected {modes}, got {fock.modes} for {fock}")
        a = complex(amp)
        if abs(a) > PRUNE:
            clean[fock] = a
    if modes is None:
        raise ValueError("cannot infer mode count from an empty state; pass modes=")
    return PureState(clean, modes)


def basis_state(occupations: Iterable[int]) -> PureState:
    """Unit-amplitude state on a single occupation vector."""
    fock = make_fock(occupations)
    return PureState({fock: 1.0 + 0j}, fock.modes)


def fock_basis(total: int, modes: int) -> list[FockState]:
    """All occupation vectors with the given photon total, in lexicographic order."""
    if total < 0 or modes < 1:
        raise ValueError("need total >= 0 and modes >= 1")

    def _fill(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in _fill(remaining - first, slots - 1):
                yield (first,) + rest

    return [FockState(occ) for occ in _fill(total, modes)]
