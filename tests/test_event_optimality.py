"""The paper's events are the best this setup offers.

The catalogue is every (context, requirement set) event of the three fibers:
a single-fiber context requires its fiber t or r (6 events), a pair context
requires one of its fibers t or r, or both (8 events each, 24 in all).  Each
event's probability is taken exactly, as a polynomial in T and eta (R = 1 - T),
by running the library's own table and event code on polynomial values.  Every
entry is affine in eta and at most quadratic in T, so a sum's maximum over
[0, 1]^2 lies at eta in {0, 1}, with T at an endpoint or at the vertex of that
edge's parabola: checking those points is exhaustive.

* No pairwise-exclusive triple exceeds 3/2.  The paper's triangle reaches it at
  T = 1/2, eta = 1, and so does its mirror image (t and r swapped), and no other.
* No five-event set whose exclusivity graph is exactly C5 exceeds 81/32, and
  the paper's pentagon reaches it at T = 9/16, eta = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from bosonctx.contextuality import (PENTAGON, TRIANGLE, EventSpec, derive_exclusivity,
                                    event_probability, standard_events)
from bosonctx.experiment import FIBERS, PAIR_CONTEXTS, full_table
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam


class Poly:
    """A polynomial in T and eta with exact coefficients, ``{(power of T, power
    of eta): Fraction}``.  It supports what the table code does with T, R and
    eta; the eta symbol compares below 1, so a pair context keeps its resolved
    entries, which carry the factor 1 - eta and so are 0 at eta = 1."""

    def __init__(self, terms: dict[tuple[int, int], Fraction]) -> None:
        self.terms = {k: v for k, v in terms.items() if v}

    @staticmethod
    def of(x) -> Poly:
        return x if isinstance(x, Poly) else Poly({(0, 0): Fraction(x)})

    def __add__(self, other) -> Poly:
        terms = dict(self.terms)
        for k, v in Poly.of(other).terms.items():
            terms[k] = terms.get(k, 0) + v
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> Poly:
        return self + -Poly.of(other)

    def __rsub__(self, other) -> Poly:
        return Poly.of(other) - self

    def __mul__(self, other) -> Poly:
        terms: dict[tuple[int, int], Fraction] = {}
        for (a, b), v in self.terms.items():
            for (c, d), w in Poly.of(other).terms.items():
                terms[a + c, b + d] = terms.get((a + c, b + d), 0) + v * w
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        result = Poly.of(1)
        for _ in range(n):
            result = result * self
        return result

    def __lt__(self, other) -> bool:
        if self.terms != ETA.terms or other != 1:
            return NotImplemented
        return True

    def __call__(self, t, eta):
        return sum(v * t ** a * eta ** b for (a, b), v in self.terms.items())


T = Poly({(1, 0): Fraction(1)})
ETA = Poly({(0, 1): Fraction(1)})


def catalogue() -> list[EventSpec]:
    """The 30 events, each labelled by its context and requirements."""
    requirement_sets = [(f, {f: v}) for f in FIBERS for v in "tr"]
    for ctx in PAIR_CONTEXTS:
        requirement_sets += [(ctx, {f: v}) for f in ctx for v in "tr"]
        requirement_sets += [(ctx, dict(zip(ctx, vs))) for vs in ("tt", "tr", "rt", "rr")]
    return [EventSpec(f"{ctx}:{','.join(f + v for f, v in reqs.items())}", ctx, reqs)
            for ctx, reqs in requirement_sets]


EVENTS = catalogue()
TABLE = full_table(SimpleNamespace(theta=None, transmittance=T, reflectance=1 - T),
                   SimpleNamespace(eta=ETA))
POLYS = [event_probability(TABLE, e) for e in EVENTS]
NEIGHBOURS = [sum(1 << j for j in near) for near in derive_exclusivity(EVENTS).neighbours]


def maximum(p: Poly) -> tuple[Fraction, Fraction, int]:
    """The exact maximum of ``p`` over [0, 1]^2, at the first point that reaches
    it, as ``(value, T, eta)``."""
    candidates = []
    for eta in (0, 1):
        c1, c2 = (sum(v * eta ** b for (a, b), v in p.terms.items() if a == k) for k in (1, 2))
        ts = [Fraction(0), Fraction(1)]
        if c2 and 0 < -c1 / (2 * c2) < 1:
            ts.append(-c1 / (2 * c2))
        candidates += [(p(t, eta), t, eta) for t in ts]
    best = max(value for value, _, _ in candidates)
    return next(c for c in candidates if c[0] == best)


def standard_indices(test: str, mirrored: bool = False) -> tuple[int, ...]:
    """Catalogue positions of a standard test's events, or with t and r swapped
    in every requirement if ``mirrored``."""
    keys = [(e.context, e.requirements) for e in EVENTS]
    swap = {"t": "r", "r": "t"} if mirrored else {"t": "t", "r": "r"}
    return tuple(sorted(keys.index((e.context, {f: swap[v] for f, v in e.requirements.items()}))
                        for e in standard_events(test)))


def test_the_catalogue_has_thirty_distinct_events():
    distinct = {(e.context, frozenset(e.requirements.items())) for e in EVENTS}
    assert len(EVENTS) == len(distinct) == 30
    assert len(standard_indices(PENTAGON)) == 5 and len(standard_indices(TRIANGLE)) == 3


def test_every_entry_is_affine_in_eta_and_at_most_quadratic_in_t():
    for poly in POLYS:
        assert all(a <= 2 and b <= 1 for a, b in poly.terms)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2])
@pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
def test_the_polynomials_are_the_librarys_float_probabilities(theta, eta):
    bs = BeamsplitterSpec(theta)
    table = full_table(bs, DistinguishabilityParam(eta))
    for event, poly in zip(EVENTS, POLYS):
        exact = poly(Fraction(bs.transmittance), Fraction(eta))
        assert event_probability(table, event) == pytest.approx(float(exact), abs=1e-12)


def test_no_pairwise_exclusive_triple_beats_three_halves():
    best, winners = Fraction(0), []
    for triple in combinations(range(len(EVENTS)), 3):
        i, j, k = triple
        if all(NEIGHBOURS[u] >> v & 1 for u, v in ((i, j), (i, k), (j, k))):
            value, t, eta = maximum(POLYS[i] + POLYS[j] + POLYS[k])
            if value > best:
                best, winners = value, []
            if value == best:
                winners.append((triple, t, eta))
    # the triangle, and its mirror image with t and r swapped, both at T = 1/2, eta = 1
    assert best == Fraction(3, 2)
    assert winners == sorted((standard_indices(TRIANGLE, mirrored), Fraction(1, 2), 1)
                             for mirrored in (False, True))


def test_no_five_cycle_of_events_beats_81_32():
    cycles = []
    for five in combinations(range(len(EVENTS)), 5):
        mask = sum(1 << i for i in five)
        if all((NEIGHBOURS[i] & mask).bit_count() == 2 for i in five):
            cycles.append(five)
    # two neighbours each on five vertices is C5; the graph the library derives agrees
    for five in cycles:
        graph = derive_exclusivity([EVENTS[i] for i in five])
        assert len(graph.edges) == 5 and all(len(near) == 2 for near in graph.neighbours)
    assert len(cycles) == 288
    best = max(maximum(sum(POLYS[i] for i in five))[0] for five in cycles)
    assert best == Fraction(81, 32)
    pentagon = standard_indices(PENTAGON)
    assert pentagon in cycles
    assert maximum(sum(POLYS[i] for i in pentagon)) == (Fraction(81, 32), Fraction(9, 16), 1)
