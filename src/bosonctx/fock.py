"""Multimode bosonic Fock states, sparse superpositions, and the number rules.

States are kept sparse (occupation vector -> complex amplitude) because every
scenario in this package involves at most a few photons in a few modes.
Terms with ``|amplitude| <= PRUNE`` are dropped when a state is built.
Every number the package reads goes through :func:`real_number`,
:func:`whole_number` or :func:`complex_number`, each of which returns a plain
float, int or complex and refuses booleans and what it cannot read with ``ValueError``;
the two real rules refuse numpy complex values too.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping

PRUNE = 1e-15
_NOT_REAL = ("b", "c")  # the dtype kinds the real rules refuse: boolean and complex


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


def _refused(value, kinds: tuple[str, ...]) -> bool:
    """A Python boolean, or anything whose ``dtype.kind`` is in ``kinds``: "b" (a
    boolean, which no number rule reads) or "c" (a complex, which no real rule reads)."""
    return not isinstance(value, float) and (
        isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", "") in kinds)


def _echo(value, convert=repr) -> str:
    """``convert(value)`` for a refusal to echo, or its type name when it cannot be
    written out, as an int past Python's int-to-text digit limit or a ``Fraction`` of
    one cannot.  Each caller cuts the text to 40 characters."""
    try:
        return convert(value)
    except ValueError:
        return f"<{type(value).__name__} too long to write out>"


def real_number(value, name: str) -> float:
    """``value`` as a float: a number, or text that spells one, that fits a float.
    A boolean or a numpy complex is refused although ``float`` reads it."""
    if type(value) is float:
        return value  # the object ``float(value)`` would return
    if not _refused(value, _NOT_REAL):
        try:
            return float(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number that fits a float, got {_echo(value):.40}")


def whole_number(value, name: str, least: int) -> int:
    """``value`` as an int, if it equals a whole number from ``least`` up that
    fits a float; text, a boolean, a complex, an infinity or NaN raises ``ValueError``."""
    if not _refused(value, _NOT_REAL):
        try:
            n = int(value)
            if n == value and least <= n <= sys.float_info.max:
                return n
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a whole number from {least!s:.40} up that fits a float, "
                     f"got {_echo(value):.40}")


def complex_number(value, name: str) -> complex:
    """``value`` as a complex of finite parts; text and booleans are refused, though
    ``complex`` reads them, and so are NaN and infinite parts."""
    if not isinstance(value, str) and not _refused(value, ("b",)):
        try:
            z = complex(value)
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a finite number, got {_echo(value):.40}")


def make_fock(occupations: Iterable[int]) -> FockState:
    """A non-empty iterable of whole numbers of at least 0 as a FockState; text
    and bytes are refused, though they iterate."""
    if isinstance(occupations, (str, bytes, bytearray)):
        raise ValueError(f"occupations must not be text or bytes, got {occupations!r:.40}")
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

    Immutable by convention (``terms`` is read-only); built by :func:`pure_state`, which
    checks, or by ``apply_interferometer`` from its own terms, both pruned by :func:`_kept`.
    """

    terms: dict[FockState, complex]
    modes: int
    __hash__ = None  # it holds a dict

    def amplitude(self, key) -> complex:
        """Amplitude of one basis state (0 if absent)."""
        return self.terms.get(_as_fock(key), 0j)

    def __iter__(self) -> Iterator[tuple[FockState, complex]]:
        return iter(self.terms.items())


def _kept(amp: complex) -> bool:
    """|amp| > ``PRUNE``: the one prune rule.  ``complex_number`` refuses a NaN or infinite part."""
    return abs(amp if cmath.isfinite(amp) else complex_number(amp, "amplitude")) > PRUNE


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
            raise ValueError(f"mode count mismatch: expected {modes!s:.40}, "
                             f"got {fock.modes!s:.40} for {fock!s:.40}")
        a = complex_number(amp, "amplitude")
        if _kept(a):
            clean[fock] = a
    if modes is None:
        raise ValueError("cannot infer mode count from an empty state; pass modes=")
    return PureState(clean, whole_number(modes, "modes", 1))


def basis_state(occupations: Iterable[int]) -> PureState:
    """Unit-amplitude state on a single occupation vector."""
    fock = make_fock(occupations)
    return PureState({fock: 1.0 + 0j}, fock.modes)


def fock_basis(total: int, modes: int) -> list[FockState]:
    """All occupation vectors with the given photon total, in lexicographic order.

    Stars and bars: ``bars[i]`` counts the photons in modes 0 to i, so mode i
    holds ``bars[i] - bars[i - 1]``.  ``combinations_with_replacement`` yields
    the non-decreasing bar positions in lexicographic order, which is the
    vectors' order, without recursion, so any mode count works.
    """
    total = whole_number(total, "total", 0)
    modes = whole_number(modes, "modes", 1)
    return [FockState(tuple(map(operator.sub, bars + (total,), (0,) + bars)))
            for bars in combinations_with_replacement(range(total + 1), modes - 1)]
