"""Exclusive events, exclusivity graphs, inequality sums, and the bound
hierarchy: the noncontextual maximum (independence number), the odd-cycle
projective quantum bound, and the algebraic fractional-packing ceiling.

Two events are exclusive when some fiber is required transmitted by one and
reflected by the other; equivalently, when no global transmit/reflect
assignment satisfies both.  The standard events are labelled with
:func:`~bosonctx.experiment.make_outcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .experiment import (
    REFLECTED,
    TRANSMITTED,
    OutcomeTable,
    check_requirements,
    full_table,
    make_outcome,
    matching_mass,
)
from .fock import real_number, whole_number
from .optics import BeamsplitterSpec, DistinguishabilityParam

PENTAGON = "pentagon"
TRIANGLE = "triangle"

MAX_EXACT_INDEPENDENCE = 24
MAX_SWEEP_POINTS = 100_001


@dataclass(frozen=True)
class EventSpec:
    """A labeled event: a context plus transmit/reflect requirements.

    ``requirements`` maps fiber letters to ``t`` or ``r`` and may constrain a
    subset of the context's fibers (single-fiber events constrain one).
    ``tokens`` holds the context's outcome tokens that meet them, resolved once
    here.  Equal events hash alike by label and context.
    """

    label: str
    context: str
    requirements: Mapping[str, str] = field(hash=False)
    tokens: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            reqs = dict(self.requirements)
        except TypeError:
            raise ValueError(f"requirements {self.requirements!r:.40} are not a mapping") from None
        object.__setattr__(self, "tokens", check_requirements(self.context, reqs))
        object.__setattr__(self, "requirements", reqs)


def _event(context: str, requirements: dict[str, str]) -> EventSpec:
    return EventSpec(make_outcome(requirements), context, requirements)


def standard_events(test: str) -> list[EventSpec]:
    """The two built-in event families.

    ``pentagon``: five cyclically exclusive events, one single-fiber event
    plus four pair events, each with probability 1/2 for identical photons at
    a balanced splitter.  ``triangle``: three pairwise exclusive pair events.
    """
    if test == PENTAGON:
        return [
            _event("A", {"A": TRANSMITTED}),
            _event("AB", {"A": REFLECTED, "B": TRANSMITTED}),
            _event("BC", {"B": REFLECTED, "C": TRANSMITTED}),
            _event("BC", {"B": TRANSMITTED, "C": REFLECTED}),
            _event("AC", {"A": REFLECTED, "C": TRANSMITTED}),
        ]
    if test == TRIANGLE:
        return [
            _event("AB", {"A": TRANSMITTED, "B": REFLECTED}),
            _event("BC", {"B": TRANSMITTED, "C": REFLECTED}),
            _event("AC", {"C": TRANSMITTED, "A": REFLECTED}),
        ]
    raise ValueError(f"unknown test {test!r}; expected {PENTAGON!r} or {TRIANGLE!r}")


@dataclass(frozen=True)
class ExclusivityGraph:
    """Vertices are event labels; an edge marks logical exclusivity."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        try:
            known = set(self.vertices)
            if len(known) != len(self.vertices):
                raise ValueError(f"vertex labels must be distinct, got {list(self.vertices)}")
            for u, v in self.edges:
                if u == v:
                    raise ValueError(f"self-loop on {u!r}")
                if u not in known or v not in known:
                    raise ValueError(f"edge ({u!r}, {v!r}) uses unknown vertices")
        except TypeError:
            raise ValueError("graph needs hashable vertices and pairs of them as edges") from None


def _edge(u: str, v: str) -> tuple[str, str]:
    return tuple(sorted((u, v)))  # type: ignore[return-value]


def cycle_graph(n: int) -> ExclusivityGraph:
    """The n-cycle on vertices v0..v{n-1}."""
    n = whole_number(n, "cycle length", 3)
    names = tuple(f"v{i}" for i in range(n))
    edges = frozenset(_edge(names[i], names[(i + 1) % n]) for i in range(n))
    return ExclusivityGraph(names, edges)


def events_exclusive(e1: EventSpec, e2: EventSpec) -> bool:
    """True when some fiber is required transmitted by one event and reflected
    by the other, so no outcome pre-assignment can satisfy both."""
    return any(fiber in e2.requirements and e2.requirements[fiber] != value
               for fiber, value in e1.requirements.items())


def derive_exclusivity(events: Sequence[EventSpec]) -> ExclusivityGraph:
    edges = set()
    for i, e1 in enumerate(events):
        for e2 in events[i + 1:]:
            if events_exclusive(e1, e2):
                edges.add(_edge(e1.label, e2.label))
    return ExclusivityGraph(tuple(e.label for e in events), frozenset(edges))


# -- probabilities and inequality sums -------------------------------------


def event_probability(table: OutcomeTable, event: EventSpec) -> float:
    """Probability mass of the table outcomes that satisfy the event.

    The unresolved coincidence labels no fiber, so it never contributes.
    """
    return matching_mass(table.context_distribution(event.context), event.tokens)


def inequality_sum(table: OutcomeTable, events: Sequence[EventSpec]) -> float:
    return sum(event_probability(table, e) for e in events)


# -- bounds -----------------------------------------------------------------


def noncontextual_max(events: Sequence[EventSpec]) -> int:
    """Most events any single outcome pre-assignment can satisfy at once.

    Deterministic assignments are extreme points of the noncontextual
    polytope, so this integer bounds every noncontextual mixture.  It is the
    independence number of the derived exclusivity graph: a requirement fixes
    one fiber's label, so events that are compatible in pairs never disagree
    on a fiber and one assignment satisfies them all.  The event labels must
    be distinct, and :func:`independence_number` caps the events at 24.
    """
    return independence_number(derive_exclusivity(events))


def exact_search_size(n: int) -> int:
    """``n``, or ``ValueError`` if :func:`independence_number` refuses n vertices."""
    if n > MAX_EXACT_INDEPENDENCE:
        raise ValueError(f"exact search limited to {MAX_EXACT_INDEPENDENCE} vertices, got {n}")
    return n


def _neighbours(graph: ExclusivityGraph) -> list[list[int]]:
    """Each vertex's neighbours, as indices into ``graph.vertices``."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    neighbours: list[list[int]] = [[] for _ in graph.vertices]
    for u, v in graph.edges:
        i, j = index[u], index[v]
        neighbours[i].append(j)
        neighbours[j].append(i)
    return neighbours


def independence_number(graph: ExclusivityGraph) -> int:
    """Exact maximum independent set size by branch and bound on bitmasks."""
    n = exact_search_size(len(graph.vertices))
    adjacency = []
    for neighbours in _neighbours(graph):
        mask = 0
        for j in neighbours:
            mask |= 1 << j
        adjacency.append(mask)

    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = size
            return
        v = (candidates & -candidates).bit_length() - 1
        rest = candidates & ~(1 << v)
        grow(rest & ~adjacency[v], size + 1)
        grow(rest, size)

    grow((1 << n) - 1, 0)
    return best


def lovasz_theta_odd_cycle(n: int) -> float:
    """Lovasz number of an odd cycle: n cos(pi/n) / (1 + cos(pi/n)).

    This is the projective quantum ceiling for a cyclic exclusivity
    structure; for n = 5 it equals sqrt(5).
    """
    n = whole_number(n, "cycle length", 3)
    if n % 2 == 0:
        raise ValueError(f"closed form requires an odd cycle length, got {n}")
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def fractional_packing_max(graph: ExclusivityGraph) -> float:
    """Exact optimum of max sum(p_i) with p_i + p_j <= 1 on edges, p_i in [0, 1]:
    n - nu/2, with nu a maximum matching of the bipartite double cover (left copy
    of i joined to right copy of j for each edge {i, j}), because the LP is
    half-integral (Nemhauser-Trotter) and Konig's theorem applies."""
    n = len(graph.vertices)
    neighbours = _neighbours(graph)
    owner = [-1] * n  # left copy matched to each right copy
    seen = [False] * n  # right copies a failed search proved dead ends
    for root in range(n):  # iterative DFS; path holds (left, right it came by, untried)
        path = [(root, -1, iter(neighbours[root]))]
        while path:
            right = next((r for r in path[-1][2] if not seen[r]), -1)
            if right < 0:
                path.pop()
            elif owner[right] >= 0:
                seen[right] = True
                path.append((owner[right], right, iter(neighbours[owner[right]])))
            else:
                for left, via, _ in reversed(path):
                    owner[right], right = left, via
                seen = [False] * n
                break
    return n - sum(left >= 0 for left in owner) / 2


# -- distinguishability sweeps ----------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    test: str
    theta: float
    etas: tuple[float, ...]
    sums: tuple[float, ...]
    bounds: dict[str, float]
    crossings: dict[str, float | None]

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "theta": self.theta,
            "bounds": dict(self.bounds),
            "crossings": dict(self.crossings),
            "series": [{"eta": e, "sum": s} for e, s in zip(self.etas, self.sums)],
        }


def _first_crossing(etas: Sequence[float], sums: Sequence[float],
                    bound: float) -> float | None:
    """Leftmost grid point or linear interpolation where the series meets the bound."""
    for i in range(len(sums) - 1):
        lo = sums[i] - bound
        hi = sums[i + 1] - bound
        if lo == 0.0:
            return etas[i]
        if lo * hi < 0.0:
            return etas[i] + (bound - sums[i]) * (etas[i + 1] - etas[i]) / (sums[i + 1] - sums[i])
    if sums and sums[-1] - bound == 0.0:
        return etas[-1]
    return None


def sweep_eta(test: str, bs: BeamsplitterSpec,
              etas: Iterable[float] | None = None, *, steps: int = 101) -> SweepResult:
    """Inequality sum as a function of the photon overlap eta, with the points
    where it crosses the noncontextual bound (and, for the pentagon, the
    projective quantum bound) found by linear interpolation.  A grid over
    :data:`MAX_SWEEP_POINTS` points is refused before it is built; explicit
    points are read by :func:`~bosonctx.fock.real_number`."""
    events = standard_events(test)
    if etas is None:
        steps = whole_number(steps, "steps", 2)
        if steps > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep limited to {MAX_SWEEP_POINTS} grid points, got {steps!r}")
        grid = [i / (steps - 1) for i in range(steps)]
    else:
        try:
            points = islice(etas, MAX_SWEEP_POINTS + 1)
        except TypeError:
            raise ValueError(f"eta grid must be iterable, got {etas!r:.40}") from None
        grid = [real_number(e, "eta") for e in points]
        if len(grid) > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep limited to {MAX_SWEEP_POINTS} grid points")
        if len(grid) < 2:
            raise ValueError("eta grid needs at least 2 points")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("eta grid must be strictly increasing")

    sums = [inequality_sum(full_table(bs, DistinguishabilityParam(e)), events)
            for e in grid]

    bounds: dict[str, float] = {"noncontextual": float(noncontextual_max(events))}
    if test == PENTAGON:
        bounds["quantum"] = lovasz_theta_odd_cycle(5)
    crossings = {name: _first_crossing(grid, sums, bound)
                 for name, bound in bounds.items()}
    return SweepResult(test, bs.theta, tuple(grid), tuple(sums), bounds, crossings)
