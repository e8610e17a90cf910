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
library itself does not need.
"""

from __future__ import annotations

import math
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
    (:func:`token_meets`), summed in the distribution's order."""
    return sum(p for token, p in distribution.items() if token_meets(token, requirements))


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
