"""The paper's events are the best this setup offers.

The catalogue is every (context, requirement set) event of the three fibers:
a single-fiber context requires its fiber t or r (6 events), a pair context
requires one of its fibers t or r, or both (8 events each, 24 in all).  Each
event's probability is taken exactly, as a polynomial in T and eta (R = 1 - T),
by running the library's own table and event code on the polynomial values of
``oracles.Poly``.  Every entry is affine in eta and at most quadratic in T, so a
sum's maximum over [0, 1]^2 lies at eta in {0, 1}, with T at an endpoint or at
the vertex of that edge's parabola: checking those points (``oracles.maximum``)
is exhaustive.

* No pairwise-exclusive triple exceeds 3/2.  The paper's triangle reaches it at
  T = 1/2, eta = 1, and so does its mirror image (t and r swapped), and no other.
* No five-event set whose exclusivity graph is exactly C5 exceeds 81/32, and
  the paper's pentagon reaches it at T = 9/16, eta = 1.
* The standard sums, read at points, are the paper's exact values: the
  pentagon 5/2, 2 and 3/2 at T = 1/2 and eta = 1, 1/2 and 0, and 81/32 at
  T = 9/16, eta = 1; the triangle 3/2, 1 and 3/4 at T = 1/2 and eta = 1, 1/3, 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from bosonctx.contextuality import (PENTAGON, TRIANGLE, EventSpec, derive_exclusivity,
                                    event_probability, inequality_sum, standard_events)
from bosonctx.experiment import FIBERS, PAIR_CONTEXTS, full_table
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam
from oracles import ETA, T, maximum


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


@pytest.mark.parametrize("test, t, eta, value", [
    (PENTAGON, Fraction(1, 2), 1, Fraction(5, 2)),
    (PENTAGON, Fraction(1, 2), Fraction(1, 2), 2),
    (PENTAGON, Fraction(1, 2), 0, Fraction(3, 2)),
    (PENTAGON, Fraction(9, 16), 1, Fraction(81, 32)),
    (TRIANGLE, Fraction(1, 2), 1, Fraction(3, 2)),
    (TRIANGLE, Fraction(1, 2), Fraction(1, 3), 1),
    (TRIANGLE, Fraction(1, 2), 0, Fraction(3, 4))], ids=str)
def test_the_standard_sums_take_the_papers_exact_values(test, t, eta, value):
    exact = inequality_sum(TABLE, standard_events(test))(t, eta)
    assert isinstance(exact, Fraction) and exact == value
