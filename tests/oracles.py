"""Independent brute-force oracles used only by the test suite.

Each oracle deliberately avoids the code path it checks: the permanent is
expanded over all permutations (and, for bit-for-bit comparison, computed by
the same Ryser/Gray-code recurrence on numpy arrays), two-photon amplitudes come from expanding
the transformed creation operators by hand, the packing LP is maximized
over a refined probability grid, the independence number is found by
enumerating every vertex subset, and the noncontextual bound by trying all
eight deterministic transmit/reflect assignments.  The standard sums and
their events' probabilities come from the closed forms in T = cos^2 theta
and eta, and a sweep's crossing from the sum being linear in eta.  Event mass is summed by
testing every token against labels read off its own text, instead of the
library's ``OUTCOMES`` catalogue and ``check_requirements``; nothing here
imports ``bosonctx``.  The state norm and the edge test are small helpers the
library itself does not need.  A graph's neighbour lists come from testing every
ordered vertex pair against its edges, not from a pass over the edges.  Exact
values come from ``Poly``, a polynomial in the symbols ``T`` and ``ETA`` that
the library's own table and event code can run on, and ``maximum`` takes one's
exact maximum over [0, 1]^2 by checking its few candidate points.  The eta
model's readouts come as ``Poly`` values from expanding its creation operators
by hand (``internal_mode_model``), with none of the library's scattering code.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product

import numpy as np


def naive_permanent(matrix) -> complex:
    """Sum over all n! permutations of products of matrix entries."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    total = 0j
    for perm in permutations(range(n)):
        term = 1 + 0j
        for i, j in enumerate(perm):
            term *= m[i, j]
        total += term
    return total


def numpy_ryser_permanent(matrix) -> complex:
    """Ryser's formula with Gray-code updates on numpy arrays.

    The same recurrence, step order and sign rule as ``optics.permanent``, so
    the two must agree exactly, not just to rounding.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += m[:, j]
        else:
            row_sums -= m[:, j]
        term = complex(np.prod(row_sums))
        total += -term if new_gray.bit_count() & 1 else term
        gray = new_gray
    return total if n % 2 == 0 else -total


def two_photon_closed_form(theta: float) -> dict[tuple[int, int], complex]:
    """Output amplitudes of one photon per input port of the symmetric splitter.

    Expanding (c a1+ + i s a2+)(i s a1+ + c a2+) on the vacuum gives
    sqrt(2) i s c on |2,0> and |0,2> and c^2 - s^2 on |1,1>.
    """
    c, s = math.cos(theta), math.sin(theta)
    return {
        (2, 0): math.sqrt(2) * 1j * s * c,
        (1, 1): (c * c - s * s) + 0j,
        (0, 2): math.sqrt(2) * 1j * s * c,
    }


def single_photon_closed_form(theta: float) -> dict[tuple[int, int], complex]:
    """Amplitudes for a photon entering port 1: c on |1,0>, i s on |0,1>."""
    c, s = math.cos(theta), math.sin(theta)
    return {(1, 0): c + 0j, (0, 1): 1j * s}


def standard_event_closed_forms(test: str, theta: float, eta: float) -> list[float]:
    """Each standard event's probability, in ``standard_events`` order: the
    pentagon's single-fiber event has T and every other event, one fiber
    transmitted and its partner reflected, has (1+eta)T(1-T)."""
    T = math.cos(theta) ** 2
    bunch = (1 + eta) * T * (1 - T)
    return [T] + [bunch] * 4 if test == "pentagon" else [bunch] * 3


def standard_sum_closed_form(test: str, theta: float, eta: float) -> float:
    """The pentagon sum T + 4(1+eta)T(1-T), or the triangle sum 3(1+eta)T(1-T)."""
    T = math.cos(theta) ** 2
    if test == "pentagon":
        return T + 4 * (1 + eta) * T * (1 - T)
    return 3 * (1 + eta) * T * (1 - T)


def linear_crossing(s0: float, s1: float, bound: float) -> float | None:
    """Where a sum linear in eta, s0 at eta = 0 and s1 at eta = 1, meets
    ``bound``: (bound - s0)/(s1 - s0), or None outside [0, 1] or if flat."""
    if s1 == s0:
        return None
    eta = (bound - s0) / (s1 - s0)
    return eta if 0 <= eta <= 1 else None


def token_labels(token: str) -> dict[str, str]:
    """Per-fiber labels spelled by a token: ``ar,bt`` is A=r and B=t, and
    ``coinc`` labels no fiber."""
    if token == "coinc":
        return {}
    return {part[0].upper(): part[1:] for part in token.split(",")}


def token_meets(token: str, requirements) -> bool:
    """Whether the labels a token spells include every requirement."""
    labels = token_labels(token)
    return all(fiber in labels and labels[fiber] == value
               for fiber, value in requirements.items())


def predicate_matching_mass(distribution, requirements) -> float:
    """Mass of the entries whose token meets every requirement
    (:func:`token_meets`), added left to right in the distribution's order from
    the int 0 (``sum`` adds floats with compensation from Python 3.12)."""
    return reduce(operator.add,
                  (p for token, p in distribution.items() if token_meets(token, requirements)), 0)


def grid_packing_max(graph, step_denominator: int = 4) -> float:
    """Maximize sum(p_i) over the grid p_i in {0, 1/q, ..., 1} subject to
    p_i + p_j <= 1 on edges.  At q = 4 this refines the half-integral grid."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(index[u], index[v]) for u, v in graph.edges]
    q = step_denominator
    best = 0
    for point in product(range(q + 1), repeat=n):
        if all(point[i] + point[j] <= q for i, j in edges):
            best = max(best, sum(point))
    return best / q


def state_norm(state) -> float:
    """Euclidean norm of a PureState's amplitude vector."""
    return math.sqrt(sum(abs(amp) ** 2 for _, amp in state))


def graph_has_edge(graph, u: str, v: str) -> bool:
    """Whether the exclusivity graph joins ``u`` and ``v``, in either order."""
    return (u, v) in graph.edges or (v, u) in graph.edges


def neighbour_lists(graph) -> list[list[int]]:
    """Each vertex's neighbours as ascending indices into ``graph.vertices``, one
    entry per edge tuple that joins the pair: an edge given in both orientations
    appears twice."""
    names = graph.vertices
    return [[j for j, v in enumerate(names) for pair in ((u, v), (v, u)) if pair in graph.edges]
            for u in names]


def subset_independence_number(graph) -> int:
    """Plain enumeration of all vertex subsets, largest independent one wins."""
    n = len(graph.vertices)
    names = graph.vertices
    best = 0
    for size in range(n, 0, -1):
        for subset in combinations(names, size):
            if not any(graph_has_edge(graph, u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def all_assignments() -> list[dict[str, str]]:
    """The 8 deterministic transmit/reflect assignments to the three photons."""
    return [dict(zip("ABC", values)) for values in product("tr", repeat=3)]


def assignment_satisfies(assignment, event) -> bool:
    return all(assignment[fiber] == value for fiber, value in event.requirements.items())


def assignment_noncontextual_max(events) -> int:
    """Most events that one deterministic assignment satisfies, over all 8."""
    return max(sum(assignment_satisfies(a, e) for e in events) for a in all_assignments())


class Poly:
    """A polynomial in T and eta with exact coefficients, ``{(power of T, power
    of eta): Fraction}``.  It supports what the table code does with T, R and
    eta, so the library's own ``full_table`` and ``event_probability``, run on
    splitter and overlap stand-ins holding ``T``, ``1 - T`` and ``ETA``, give
    each entry and event exactly; reading one at a point gives its ``Fraction``."""

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
        """Only ``ETA < 1``, answered True: the pair rule's ``eta < 1.0``
        (``optics.pair_outcome_distribution``) then keeps the resolved entries,
        which carry the factor 1 - eta and so are 0 at eta = 1."""
        if self.terms != ETA.terms or other != 1:
            return NotImplemented
        return True

    def __call__(self, t, eta):
        return sum(v * t ** a * eta ** b for (a, b), v in self.terms.items())


T = Poly({(1, 0): Fraction(1)})
ETA = Poly({(0, 1): Fraction(1)})


def maximum(p: Poly) -> tuple[Fraction, Fraction, int]:
    """The exact maximum of ``p`` over [0, 1]^2, at the first point that reaches
    it, as ``(value, T, eta)``.  ``p`` must be affine in eta and at most
    quadratic in T, as every table entry is: the maximum then lies at eta in
    {0, 1}, with T at an endpoint or at the vertex of that edge's parabola."""
    candidates = []
    for eta in (0, 1):
        c1, c2 = (sum(v * eta ** b for (a, b), v in p.terms.items() if a == k) for k in (1, 2))
        ts = [Fraction(0), Fraction(1)]
        if c2 and 0 < -c1 / (2 * c2) < 1:
            ts.append(-c1 / (2 * c2))
        candidates += [(p(t, eta), t, eta) for t in ts]
    best = max(value for value, _, _ in candidates)
    return next(c for c in candidates if c[0] == best)


# a polynomial in c = cos theta, s = sin theta, a = sqrt(eta) and b = sqrt(1 - eta):
# {(power of c, of s, of a, of b): (real part, imaginary part)}, Gaussian integers
_C, _S, _A, _B = ({(1, 0, 0, 0): (1, 0)}, {(0, 1, 0, 0): (1, 0)},
                  {(0, 0, 1, 0): (1, 0)}, {(0, 0, 0, 1): (1, 0)})


def _times(p, q):
    out = {}
    for k1, (x1, y1) in p.items():
        for k2, (x2, y2) in q.items():
            k = tuple(map(operator.add, k1, k2))
            x, y = out.get(k, (0, 0))
            out[k] = (x + x1 * x2 - y1 * y2, y + x1 * y2 + y1 * x2)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _plus(p, q):
    out = dict(p)
    for k, (x, y) in q.items():
        x0, y0 = out.get(k, (0, 0))
        out[k] = (x0 + x, y0 + y)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _probability(amplitude, weight: int) -> Poly:
    """``weight`` |amplitude|^2 as a ``Poly``: c^2 is T, s^2 is 1 - T, a^2 is eta
    and b^2 is 1 - eta.  Every power of the modulus must come out even."""
    conjugate = {k: (x, -y) for k, (x, y) in amplitude.items()}
    total = Poly.of(0)
    for (i, j, k, m), (x, y) in _times(amplitude, conjugate).items():
        assert y == 0 and i % 2 == j % 2 == k % 2 == m % 2 == 0
        total = total + x * weight * T ** (i // 2) * (1 - T) ** (j // 2) \
            * ETA ** (k // 2) * (1 - ETA) ** (m // 2)
    return total


def internal_mode_model() -> dict[tuple[str, ...], Poly]:
    """The eta model of the ``optics`` module docstring, expanded by hand.

    The splitter [[c, i s], [i s, c]] (x) I_2 sends the creation operator of
    (port p, internal k) to the sum over ports q of U[q][p] times that of
    (q, k); the modes are numbered 2 port + internal.  One photon in port 1
    gives c and i s.  Two photons, one in (1, |0>) and one in
    a (2, |0>) + b (2, |1>), give each output occupation n the coefficient of
    its product of creation operators, whose probability is its squared
    modulus times the product of the n_k!.  Each readout, keyed by its labels
    in context order as ``OUTCOMES`` spells them (the first fiber's photon
    enters port 1), is a ``Poly`` in ``T`` and ``ETA``: t or r for one photon;
    tr and rt for both photons in port 1 or in port 2, whatever their internal
    modes; tt, rr and () for |1,0,0,1>, |0,1,1,0> and |1,0,1,0>."""
    i_s = _times(_S, {(0, 0, 0, 0): (0, 1)})
    u = [[_C, i_s], [i_s, _C]]
    first = {2 * q: u[q][0] for q in range(2)}
    second = {2 * q + k: _times(amp, u[q][1]) for k, amp in enumerate((_A, _B)) for q in range(2)}
    pair: dict[tuple[int, ...], dict] = {}
    for m1, p1 in first.items():
        for m2, p2 in second.items():
            n = tuple((m == m1) + (m == m2) for m in range(4))
            pair[n] = _plus(pair.get(n, {}), _times(p1, p2))
    probability = {n: _probability(amp, math.prod(map(math.factorial, n)))
                   for n, amp in pair.items()}
    return {("t",): _probability(u[0][0], 1), ("r",): _probability(u[1][0], 1),
            ("t", "r"): sum((p for n, p in probability.items() if n[0] + n[1] == 2), Poly.of(0)),
            ("r", "t"): sum((p for n, p in probability.items() if n[2] + n[3] == 2), Poly.of(0)),
            ("t", "t"): probability[1, 0, 0, 1], ("r", "r"): probability[0, 1, 1, 0],
            (): probability[1, 0, 1, 0]}
