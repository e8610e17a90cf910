"""Exclusive events, exclusivity graphs, inequality sums, and the bound
hierarchy: the noncontextual maximum (independence number), the odd-cycle
projective quantum bound, and the algebraic fractional-packing ceiling.

Two events are exclusive when some fiber is required transmitted by one and
reflected by the other; equivalently, when no global transmit/reflect
assignment satisfies both.  Each standard event is one outcome of
:data:`~bosonctx.experiment.OUTCOMES`, named by its context and token.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .experiment import OUTCOMES, OutcomeTable, check_requirements, full_table, matching_mass
from .fock import _echo, whole_number
from .optics import BeamsplitterSpec, DistinguishabilityParam

PENTAGON = "pentagon"
TRIANGLE = "triangle"

MAX_EXACT_INDEPENDENCE = 24
MAX_SWEEP_POINTS = 100_001
MAX_CYCLE_LENGTH = 100_000


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


# The standard tests, read-only: each event's (context, token) entry of OUTCOMES, in
# event order, and the odd cycle length whose Lovasz number is the quantum bound.  The
# triangle has none: theta(C3) = 1 is already its noncontextual bound alpha.
STANDARD_TESTS = MappingProxyType({
    PENTAGON: ((("A", "at"), ("AB", "ar,bt"), ("BC", "br,ct"), ("BC", "bt,cr"),
                ("AC", "ar,ct")), 5),
    TRIANGLE: ((("AB", "at,br"), ("BC", "bt,cr"), ("AC", "ar,ct")), None),
})


def standard_events(test: str) -> list[EventSpec]:
    """A :data:`STANDARD_TESTS` entry's events, built afresh, each labelled by its
    token and requiring that token's labels in :data:`~bosonctx.experiment.OUTCOMES`.
    ``pentagon``: five cyclically exclusive events, one on a single fiber and four
    on pairs, each of probability 1/2 for identical photons at a balanced
    splitter.  ``triangle``: three pairwise exclusive pair events."""
    try:
        entries = STANDARD_TESTS[test][0]
    except (KeyError, TypeError):
        raise ValueError(f"unknown test {test!r:.40}; "
                         f"expected {PENTAGON!r} or {TRIANGLE!r}") from None
    return [EventSpec(token, ctx, OUTCOMES[ctx][token]) for ctx, token in entries]


@dataclass(frozen=True)
class ExclusivityGraph:
    """Vertices are event labels; an edge marks logical exclusivity.  ``neighbours``
    holds each vertex's neighbour indices, built once in the pass that checks the edges."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    neighbours: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            index = {v: i for i, v in enumerate(self.vertices)}
            if len(index) != len(self.vertices):
                raise ValueError(f"vertex labels must be distinct, got {[*self.vertices]!r:.40}")
            neighbours: list[list[int]] = [[] for _ in index]
            for u, v in self.edges:
                if u == v:
                    raise ValueError(f"self-loop on {u!r:.40}")
                if u not in index or v not in index:
                    raise ValueError(f"edge ({u!r:.40}, {v!r:.40}) uses unknown vertices")
                neighbours[index[u]].append(index[v])
                neighbours[index[v]].append(index[u])
        except TypeError:
            raise ValueError("graph needs hashable vertices and pairs of them as edges") from None
        object.__setattr__(self, "neighbours", tuple(map(tuple, neighbours)))


def _edge(u: str, v: str) -> tuple[str, str]:
    return tuple(sorted((u, v)))  # type: ignore[return-value]


def cycle_graph(n: int) -> ExclusivityGraph:
    """The n-cycle on vertices v0..v{n-1}, for n from 3 to :data:`MAX_CYCLE_LENGTH`."""
    n = whole_number(n, "cycle length", 3)
    if n > MAX_CYCLE_LENGTH:
        raise ValueError(f"cycle length limited to {MAX_CYCLE_LENGTH}, got {n!r:.40}")
    names = tuple(f"v{i}" for i in range(n))
    edges = frozenset(_edge(names[i], names[(i + 1) % n]) for i in range(n))
    return ExclusivityGraph(names, edges)


def events_exclusive(e1: EventSpec, e2: EventSpec) -> bool:
    """True when some fiber is required transmitted by one event and reflected
    by the other, so no outcome pre-assignment can satisfy both."""
    return any(fiber in e2.requirements and e2.requirements[fiber] != value
               for fiber, value in e1.requirements.items())


def _instance(value, cls: type, name: str):
    """``value``, or ``ValueError`` naming it ``name`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be an {cls.__name__:.40}, got {_echo(value):.40}")
    return value


def _event_list(events) -> list[EventSpec]:
    """``events`` as a list, or ``ValueError`` unless it is an iterable of :class:`EventSpec`."""
    try:
        items = iter(events)
    except TypeError:
        raise ValueError(f"events must be an iterable of EventSpec, got {_echo(events):.40}"
                         ) from None
    return [_instance(e, EventSpec, "an event") for e in items]


def derive_exclusivity(events: Sequence[EventSpec]) -> ExclusivityGraph:
    events = _event_list(events)
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
    event = _instance(event, EventSpec, "an event")
    return matching_mass(table.context_distribution(event.context), event.tokens)


def inequality_sum(table: OutcomeTable, events: Sequence[EventSpec]) -> float:
    """The events' probabilities added left to right in event order from the int 0,
    by ``reduce``: from Python 3.12, ``sum`` adds floats with compensation."""
    return reduce(operator.add, (event_probability(table, e) for e in _event_list(events)), 0)


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
        raise ValueError(f"exact search limited to {MAX_EXACT_INDEPENDENCE} vertices, "
                         f"got {_echo(n, str):.40}")
    return n


def independence_number(graph: ExclusivityGraph) -> int:
    """Exact maximum independent set size by branch and bound on bitmasks, run on an
    explicit stack.  The lowest candidate is taken without branching when at most one
    other candidate is its neighbour: some maximum independent set holds it."""
    n = exact_search_size(len(_instance(graph, ExclusivityGraph, "a graph").vertices))
    adjacency = [0] * n
    for i, neighbours in enumerate(graph.neighbours):
        for j in neighbours:
            adjacency[i] |= 1 << j

    best = 0
    stack = [((1 << n) - 1, 0)]  # (candidates, size of the set taken so far)
    while stack:
        candidates, size = stack.pop()
        while size + candidates.bit_count() > best:
            if not candidates:
                best = size
                break
            low = candidates & -candidates
            rest, near = candidates ^ low, adjacency[low.bit_length() - 1]
            if (rest & near).bit_count() > 1:
                stack.append((rest, size))  # the branch that leaves the vertex out
            candidates, size = rest & ~near, size + 1
    return best


def lovasz_theta_odd_cycle(n: int) -> float:
    """Lovasz number of an odd cycle: n cos(pi/n) / (1 + cos(pi/n)).

    This is the projective quantum ceiling for a cyclic exclusivity
    structure; for n = 5 it equals sqrt(5).
    """
    n = whole_number(n, "cycle length", 3)
    if n % 2 == 0:
        raise ValueError(f"closed form requires an odd cycle length, got {n!s:.40}")
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def standard_bounds(test: str) -> dict[str, float]:
    """``noncontextual``, the int alpha of :func:`noncontextual_max`, then for the
    pentagon ``quantum``, theta(C5) = sqrt(5)."""
    bounds: dict[str, float] = {"noncontextual": noncontextual_max(standard_events(test))}
    if (cycle := STANDARD_TESTS[test][1]) is not None:
        bounds["quantum"] = lovasz_theta_odd_cycle(cycle)
    return bounds


def fractional_packing_max(graph: ExclusivityGraph) -> float:
    """Exact optimum of max sum(p_i) with p_i + p_j <= 1 on edges, p_i in [0, 1]:
    n - nu/2, with nu a maximum matching of the bipartite double cover (left copy
    of i joined to right copy of j for each edge {i, j}), because the LP is
    half-integral (Nemhauser-Trotter) and Konig's theorem applies."""
    n, neighbours = len(_instance(graph, ExclusivityGraph, "a graph").vertices), graph.neighbours
    owner = [-1] * n  # left copy matched to each right copy
    seen, stamp = [-1] * n, 0  # seen[r] == stamp: right copy r entered since the last augmentation
    for root in range(n):
        for free in neighbours[root]:
            if owner[free] < 0:  # a one-edge augmenting path needs no search
                owner[free] = root
                break
        else:
            path = [(root, -1, 0)]  # DFS: (left, right it came by, next neighbour index)
            while path:
                left, via, i = path.pop()
                rights = neighbours[left]
                while i < len(rights) and seen[rights[i]] == stamp:
                    i += 1
                if i == len(rights):
                    continue  # a dead end: every right copy it reaches is stamped
                right = rights[i]
                seen[right] = stamp
                path.append((left, via, i + 1))
                if owner[right] >= 0:
                    path.append((owner[right], right, 0))
                    continue
                for left, via, _ in reversed(path):
                    owner[right], right = left, via
                stamp += 1
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
    __hash__ = None  # it holds dicts

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
              etas: Iterable[float] | None = None, *, steps: int | None = None) -> SweepResult:
    """Inequality sum as a function of the photon overlap eta, with the points
    where it crosses the noncontextual bound (and, for the pentagon, the
    projective quantum bound) found by linear interpolation.  Each point's sum
    is read from the test's :data:`STANDARD_TESTS` entries.  ``steps``
    makes a uniform grid (101 points when neither it nor ``etas`` is given),
    refused over :data:`MAX_SWEEP_POINTS` points before it is built and
    refused together with ``etas``; each point of either grid is read once by
    :class:`~bosonctx.optics.DistinguishabilityParam` before the grid checks."""
    bounds = {name: float(bound) for name, bound in standard_bounds(test).items()}
    if etas is None:
        steps = whole_number(101 if steps is None else steps, "steps", 2)
        if steps > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep limited to {MAX_SWEEP_POINTS} grid points, got {steps!r:.40}")
        etas = [i / (steps - 1) for i in range(steps)]
    elif steps is not None:
        raise ValueError(f"give an eta grid or steps, not both; got steps {_echo(steps):.40}")
    if isinstance(etas, (str, bytes, bytearray)):
        raise ValueError(f"eta grid must not be text or bytes, got {etas!r:.40}")
    try:
        points = islice(etas, MAX_SWEEP_POINTS + 1)
    except TypeError:
        raise ValueError(f"eta grid must be iterable, got {etas!r:.40}") from None
    params = [DistinguishabilityParam(e) for e in points]
    grid = [d.eta for d in params]
    if len(grid) > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep limited to {MAX_SWEEP_POINTS} grid points")
    if len(grid) < 2:
        raise ValueError("eta grid needs at least 2 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eta grid must be strictly increasing")

    # each standard entry is a bunching or single-fiber outcome, present at every eta and
    # never -0.0, so its event's mass 0 + p is p and these sums are inequality_sum's bits
    entries = STANDARD_TESTS[test][0]
    sums = []
    for d in params:
        contexts = full_table(bs, d).contexts
        total = 0
        for c, t in entries:
            total += contexts[c][t]
        sums.append(total)
    crossings = {name: _first_crossing(grid, sums, b) for name, b in bounds.items()}
    return SweepResult(test, bs.theta, tuple(grid), tuple(sums), bounds, crossings)
