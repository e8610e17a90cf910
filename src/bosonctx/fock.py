"""Multimode bosonic Fock states, sparse superpositions, and the number rules.

States are kept sparse (occupation vector -> complex amplitude) because every
scenario in this package involves at most a few photons in a few modes.
Terms with ``|amplitude| <= PRUNE`` are dropped when a state is built.
Every number the package reads goes through :func:`real_number`,
:func:`whole_number` or :func:`complex_number`, each of which returns a plain
float, int or complex and refuses what it cannot read with ``ValueError``.
"""

from __future__ import annotations

import sys
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


def real_number(value, name: str) -> float:
    """``value`` as a float: a number, or text that spells one, that fits a float.
    A boolean is refused although ``float(True)`` works."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number that fits a float, got {value!r:.40}")


def whole_number(value, name: str, least: int) -> int:
    """``value`` as an int, if it equals a whole number from ``least`` up that
    fits a float; text, an infinity or NaN raises ``ValueError``."""
    try:
        n = int(value)
        if n == value and least <= n <= sys.float_info.max:
            return n
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a whole number from {least} up that fits a float, "
                     f"got {value!r:.40}")


def complex_number(value, name: str) -> complex:
    """``value`` as a complex; text is refused even when it spells a number."""
    if not isinstance(value, str):
        try:
            return complex(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r:.40}")


def make_fock(occupations: Iterable[int]) -> FockState:
    """A non-empty iterable of whole numbers of at least 0 as a FockState."""
    try:
        occ = tuple(whole_number(n, "occupation number", 0) for n in occupations)
    except TypeError:
        raise ValueError(f"occupations must be iterable, got {occupations!r:.40}") from None
    if not occ:
        raise ValueError("occupation vector must be non-empty")
    return FockState(occ)


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
    if not isinstance(terms, Mapping):
        raise ValueError(f"terms must be a mapping, got {terms!r:.40}")
    clean: dict[FockState, complex] = {}
    for key, amp in terms.items():
        fock = _as_fock(key)
        if modes is None:
            modes = fock.modes
        elif fock.modes != modes:
            raise ValueError(
                f"mode count mismatch: expected {modes}, got {fock.modes} for {fock}")
        a = complex_number(amp, "amplitude")
        if abs(a) > PRUNE:
            clean[fock] = a
    if modes is None:
        raise ValueError("cannot infer mode count from an empty state; pass modes=")
    return PureState(clean, whole_number(modes, "modes", 1))


def basis_state(occupations: Iterable[int]) -> PureState:
    """Unit-amplitude state on a single occupation vector."""
    fock = make_fock(occupations)
    return PureState({fock: 1.0 + 0j}, fock.modes)


def fock_basis(total: int, modes: int) -> list[FockState]:
    """All occupation vectors with the given photon total, in lexicographic order."""
    total = whole_number(total, "total", 0)
    modes = whole_number(modes, "modes", 1)

    def _fill(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in _fill(remaining - first, slots - 1):
                yield (first,) + rest

    return [FockState(occ) for occ in _fill(total, modes)]
