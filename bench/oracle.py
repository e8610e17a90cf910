"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports bosonctx.  Every quantity is re-derived from its closed
form or by brute force, so a fault in the program cannot hide by being
shared with the code that checks it:

* table entries from T = cos^2(theta), R = sin^2(theta) and the overlap eta;
* inequality sums as T + 4(1+eta)TR (pentagon) and 3(1+eta)TR (triangle),
  which are affine in eta, so bound crossings are (b - s0) / (s1 - s0);
* the independence number by plain subset enumeration;
* the fractional packing optimum as n - nu/2, with nu a maximum matching of
  the bipartite double cover (half-integral LP optimum, Nemhauser-Trotter);
* permanents as sums over all permutations.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import permutations

FIBERS = "ABC"
PAIR_CONTEXTS = ("AB", "AC", "BC")
COINC = "coinc"


def splitter(theta: float) -> tuple[float, float]:
    """Transmittance and reflectance of the splitter at angle theta."""
    return math.cos(theta) ** 2, math.sin(theta) ** 2


def closed_form_table(theta: float, eta: float) -> dict[str, dict[str, float]]:
    """Every context's outcome distribution from its closed form.

    Single contexts: T, R.  Pair contexts: (1+eta)TR for each bunching port,
    (1-eta)T^2 and (1-eta)R^2 for the resolved classical coincidences (listed
    only while eta < 1) and eta(T-R)^2 for the unresolved bosonic one.
    """
    T, R = splitter(theta)
    table = {f: {f.lower() + "t": T, f.lower() + "r": R} for f in FIBERS}
    for ctx in PAIR_CONTEXTS:
        x, y = ctx.lower()
        dist = {f"{x}t,{y}r": (1.0 + eta) * T * R, f"{x}r,{y}t": (1.0 + eta) * T * R}
        if eta < 1.0:
            dist[f"{x}t,{y}t"] = (1.0 - eta) * T * T
            dist[f"{x}r,{y}r"] = (1.0 - eta) * R * R
        dist[COINC] = eta * (T - R) ** 2
        table[ctx] = dist
    return table


# -- events -----------------------------------------------------------------

PENTAGON_REQUIREMENTS = (
    {"A": "t"}, {"A": "r", "B": "t"}, {"B": "r", "C": "t"},
    {"B": "t", "C": "r"}, {"A": "r", "C": "t"},
)
TRIANGLE_REQUIREMENTS = (
    {"A": "t", "B": "r"}, {"B": "t", "C": "r"}, {"A": "r", "C": "t"},
)
NC_BOUNDS = {"pentagon": 2.0, "triangle": 1.0}


def event_label(requirements: dict[str, str]) -> str:
    return ",".join(f.lower() + v for f, v in sorted(requirements.items()))


def event_context(requirements: dict[str, str]) -> str:
    return "".join(sorted(requirements))


def all_event_requirements() -> list[dict[str, str]]:
    """The 18 events the grammar allows: one fiber (6) or a pair of fibers (12)."""
    events = [{f: v} for f in FIBERS for v in "tr"]
    events += [{ctx[0]: v1, ctx[1]: v2}
               for ctx in PAIR_CONTEXTS for v1 in "tr" for v2 in "tr"]
    return events


def token_labels(token: str) -> dict[str, str]:
    if token == COINC:
        return {}
    return {part[0].upper(): part[1] for part in token.split(",")}


def event_probability(table: dict[str, dict[str, float]], requirements: dict[str, str]) -> float:
    dist = table[event_context(requirements)]
    return sum(p for token, p in dist.items()
               if all(token_labels(token).get(f) == v for f, v in requirements.items()))


def inequality_sum(test: str, theta: float, eta: float) -> float:
    T, R = splitter(theta)
    if test == "pentagon":
        return T + 4.0 * (1.0 + eta) * T * R
    return 3.0 * (1.0 + eta) * T * R


def exclusive(r1: dict[str, str], r2: dict[str, str]) -> bool:
    return any(f in r2 and r2[f] != v for f, v in r1.items())


def exclusivity_edges(events: list[dict[str, str]]) -> set[tuple[int, int]]:
    return {(i, j) for i in range(len(events)) for j in range(i + 1, len(events))
            if exclusive(events[i], events[j])}


def lovasz_theta_odd_cycle(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def crossing(s0: float, s1: float, bound: float) -> float | None:
    """Where the affine sum s0 + (s1 - s0) eta meets the bound, if in [0, 1]."""
    if s1 == s0:
        return 0.0 if s0 == bound else None
    x = (bound - s0) / (s1 - s0)
    return x if 0.0 <= x <= 1.0 else None


# -- graph bounds -----------------------------------------------------------


def independence_number(n: int, edges) -> int:
    """Largest independent vertex subset, by enumerating all 2^n subsets."""
    adjacency = [0] * n
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    independent = bytearray(1 << n)
    independent[0] = 1
    best = 0
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if independent[rest] and not adjacency[low] & rest:
            independent[mask] = 1
            best = max(best, mask.bit_count())
    return best


def double_cover_matching(n: int, edges) -> int:
    """Maximum matching of the bipartite double cover, by augmenting paths."""
    neighbours = [[] for _ in range(n)]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    owner = [-1] * n

    def augment(u: int, seen: list[bool]) -> bool:
        for v in neighbours[u]:
            if not seen[v]:
                seen[v] = True
                if owner[v] < 0 or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return sum(augment(u, [False] * n) for u in range(n))


def fractional_packing_max(n: int, edges) -> float:
    """max sum(x) subject to x_i + x_j <= 1 on edges, 0 <= x <= 1."""
    return n - double_cover_matching(n, edges) / 2.0


# -- scattering -------------------------------------------------------------


def permanent(matrix) -> complex:
    n = len(matrix)
    total = 0j
    for perm in permutations(range(n)):
        term = 1 + 0j
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def scattering_amplitude(unitary, occ_in, occ_out) -> complex:
    """<out|U|in>: permanent of U with row i repeated out_i times and
    column j repeated in_j times, over sqrt(prod in_j! prod out_i!)."""
    cols = [j for j, k in enumerate(occ_in) for _ in range(k)]
    rows = [i for i, k in enumerate(occ_out) for _ in range(k)]
    sub = [[unitary[r][c] for c in cols] for r in rows]
    weight = math.prod(math.factorial(k) for k in occ_in)
    weight *= math.prod(math.factorial(k) for k in occ_out)
    return permanent(sub) / math.sqrt(weight)


def mean_photon_numbers(unitary, occ_in) -> list[float]:
    """<n_i> after the interferometer: sum_j |U_ij|^2 n_j for a Fock input."""
    return [sum(abs(row[j]) ** 2 * occ_in[j] for j in range(len(occ_in)))
            for row in unitary]


# -- table files -------------------------------------------------------------


def table_records(table: dict[str, dict[str, float]]) -> list[dict]:
    return [{"context": ctx, "outcome": token, "probability": p}
            for ctx in ("A", "B", "C") + PAIR_CONTEXTS
            for token, p in table[ctx].items()]


def parse_csv_table(text: str) -> tuple[dict[str, str], dict[str, dict[str, float]]]:
    """The '# key=value' header lines and the context,outcome,probability rows."""
    meta: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            rows.append(line)
    table: dict[str, dict[str, float]] = {}
    reader = csv.reader(io.StringIO("\n".join(rows)))
    if next(reader) != ["context", "outcome", "probability"]:
        raise ValueError("bad CSV header")
    for ctx, token, p in reader:
        table.setdefault(ctx, {})[token] = float(p)
    return meta, table


def json_table(payload: dict) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for rec in payload["records"]:
        table.setdefault(rec["context"], {})[rec["outcome"]] = rec["probability"]
    return table


def table_mismatch(got: dict[str, dict[str, float]],
                   want: dict[str, dict[str, float]], tol: float = 1e-12) -> str | None:
    """First difference between two tables, or None when they agree within tol."""
    if set(got) != set(want):
        return f"contexts {sorted(got)} != {sorted(want)}"
    for ctx, dist in want.items():
        if set(got[ctx]) != set(dist):
            return f"{ctx}: outcomes {sorted(got[ctx])} != {sorted(dist)}"
        for token, p in dist.items():
            if abs(got[ctx][token] - p) > tol:
                return f"{ctx}/{token}: {got[ctx][token]!r} != {p!r}"
    return None
