"""Beamsplitter unitaries, permanent-based bosonic scattering, and the
closed-form one- and two-photon output distributions.

Conventions fixed here and relied on everywhere else:

* the two-mode beamsplitter unitary is the symmetric form
  ``[[cos t, i sin t], [i sin t, cos t]]`` with transmittance T = cos^2 t;
* "transmitted" means a photon leaves through the output port with the same
  number as its input port, "reflected" means it crosses over;
* partial distinguishability is an internal mode: the photon in port 1 is in
  |0>, the one in port 2 in sqrt(eta)|0> + sqrt(1 - eta)|1>, and the splitter
  is U (x) I_2 on the modes (port 1, |0>), (port 1, |1>), (port 2, |0>),
  (port 2, |1>).  So ``eta`` weighs identical bosons and ``1 - eta`` photons
  told apart; no probability is negative, the coincidence is
  ``T^2 + R^2 - 2 eta T R``, a bunch port's entry sums its internal modes, and
  both t, both r and ``coinc`` read |1,0,0,1>, |0,1,1,0> and |1,0,1,0>.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import accumulate, repeat

import numpy as np

from .fock import FockState, PureState, complex_number, fock_basis, pure_state, real_number


@dataclass(frozen=True)
class BeamsplitterSpec:
    """A lossless two-mode beamsplitter parametrized by a mixing angle in radians."""

    theta: float

    def __post_init__(self) -> None:
        theta = real_number(self.theta, "theta")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        object.__setattr__(self, "theta", theta)

    @cached_property
    def transmittance(self) -> float:
        return math.cos(self.theta) ** 2

    @cached_property
    def reflectance(self) -> float:
        return math.sin(self.theta) ** 2


BALANCED = BeamsplitterSpec(math.pi / 4)


@dataclass(frozen=True)
class DistinguishabilityParam:
    """Squared mode overlap of the two photons: 1 = identical, 0 = fully distinguishable."""

    eta: float

    def __post_init__(self) -> None:
        eta = real_number(self.eta, "eta")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
        object.__setattr__(self, "eta", eta + 0.0)  # a zero overlap is 0.0, never -0.0


@dataclass(frozen=True)
class SinglePhotonDistribution:
    p_transmitted: float
    p_reflected: float


@dataclass(frozen=True)
class PairDistribution:
    """Output statistics for one photon in each input port.

    ``p_unresolved`` is the interfering bosonic fraction of the one photon per
    output port coincidence, a single outcome that labels neither photon.
    For partially distinguishable photons (eta < 1) the classical fraction of
    that coincidence splits into (both transmitted, both reflected) and is
    reported in ``resolved_coincidence``.
    """

    p_bunch_port1: float
    p_bunch_port2: float
    p_unresolved: float
    resolved_coincidence: tuple[float, float] | None = None

    @property
    def p_coincidence(self) -> float:
        """Total probability of one photon per output port, resolved or not."""
        return self.p_unresolved + sum(self.resolved_coincidence or ())


def beamsplitter_unitary(bs: BeamsplitterSpec) -> np.ndarray:
    """2x2 mode unitary of the beamsplitter in the fixed symmetric convention."""
    c, s = math.cos(bs.theta), math.sin(bs.theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


class _Rows(tuple):
    """Checked rows of Python complex, which ``_square_rows`` passes through as is.

    So ``apply_interferometer`` checks its unitary once per call, and
    ``permanent`` does not re-check the submatrices ``scattering_amplitude``
    cuts from it.
    """


def _square_rows(matrix, name: str) -> _Rows:
    """The rows of a non-empty square matrix of numbers; anything else is a ``ValueError``."""
    if type(matrix) is _Rows:
        return matrix
    try:
        rows = _Rows(tuple(complex_number(x, f"{name} entry") for x in row) for row in matrix)
    except TypeError:
        raise ValueError(f"{name} must be a square matrix of numbers") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} must be a non-empty square matrix, got {len(rows)} "
                         f"rows of lengths {sorted({len(row) for row in rows})}")
    return rows


# Steps per block of the walk in ``permanent``: a call holds O(n * _WALK_BLOCK)
# running sums, not O(n * 2^n).  Even, so each block starts into an odd subset.
_WALK_BLOCK = 1 << 9


@cache
def _walk_getters(n: int) -> tuple[Callable, ...]:
    """One getter per block of at most ``_WALK_BLOCK`` steps of the Gray-code
    walk over the non-empty subsets of n columns, in walk order; equal blocks
    share one.  Step k (1 <= k < 2^n) flips column j, the lowest set bit of k,
    and its getter picks from a row's ``row + tuple(map(neg, row))`` the entry
    the step adds to that row's sum: j if the Gray code ``k ^ (k >> 1)`` holds
    column j, n + j if not.  Built on first use of a size, and never at import.
    """
    flips = ((k, (k & -k).bit_length() - 1) for k in range(1, 1 << n))  # step k, column j
    indices = [j if (k ^ k >> 1) >> j & 1 else n + j for k, j in flips]
    shared: dict[tuple, Callable] = {}
    getters = []
    for start in range(0, len(indices), _WALK_BLOCK):
        block = tuple(indices[start:start + _WALK_BLOCK])
        if block not in shared:
            # itemgetter of one index returns the item, not a tuple: the walk of n = 1
            shared[block] = (operator.itemgetter(*block) if len(block) > 1
                             else operator.itemgetter(slice(block[0], block[0] + 1)))
        getters.append(shared[block])
    return tuple(getters)


def permanent(matrix) -> complex:
    """Matrix permanent via Ryser's formula with Gray-code subset updates.

    ``matrix`` is a non-empty square list of lists, tuple of tuples or 2-D
    ``ndarray`` of numbers; anything else raises ``ValueError``.  Runs in
    O(2^n * n) for an n x n matrix in plain Python; exact up to floating point.

    The walk goes row by row.  Each distinct row *object* forms its running
    sums over the Gray-code walk once, through the getters of
    :func:`_walk_getters` (cached per size); a row repeated as the same
    object, as :func:`scattering_amplitude` repeats a bunched output mode's
    row, shares them.  Rows are matched by identity, never by equality, since
    0.0 == -0.0.  Each term is the product of the rows' sums in row order from
    the int 1, as ``math.prod`` forms it, and the signed terms are added in
    walk order; a subtraction is the addition of the negation in IEEE
    arithmetic, so every bit matches the step-by-step walk.  The walk runs in
    blocks of at most ``_WALK_BLOCK`` steps that carry each row's last sum and
    the total, so a call holds O(n * _WALK_BLOCK) sums.
    """
    rows = _square_rows(matrix, "permanent")
    n = len(rows)
    signed = {id(row): row + tuple(map(operator.neg, row)) for row in rows}
    carry = dict.fromkeys(signed, 0j)
    total = 0j
    for getter in _walk_getters(n):
        sums = {}
        for key, entries in signed.items():
            block = sums[key] = list(accumulate(getter(entries), initial=carry[key]))
            carry[key] = block[-1]
            del block[0]
        terms = repeat(1)
        for row in rows:
            terms = map(operator.mul, terms, sums[id(row)])
        terms = list(terms)
        terms[::2] = map(operator.neg, terms[::2])  # each block starts into an odd subset
        # reduce, not sum: newer Pythons sum floats and complexes with compensation
        total = reduce(operator.add, terms, total)
    return total if n % 2 == 0 else -total


def _amplitudes(u: _Rows, state_in: FockState, outs) -> Iterator[complex]:
    """<out| U |in> for each ``out`` in ``outs``, which hold the photon total of
    ``state_in``, through the checked unitary ``u``: the one amplitude rule.

    The columns, the input weight (1.0 times each n_i!, in mode order) and one
    row per mode are built once per input state.  Each output's submatrix
    passes an occupied mode's shared row once per photon in that mode, so
    ``permanent`` forms that row's sums once, and its weight goes on from the
    input weight by each m_j!, in mode order (0! = 1 changes no bit and is
    skipped).
    """
    cols = [i for i, n in enumerate(state_in.occupations) for _ in range(n)]
    if not cols:  # the vacuum goes to the vacuum
        for _ in outs:
            yield 1 + 0j
        return
    mode_rows = [tuple(row[c] for c in cols) for row in u]
    weight_in = 1.0
    for n in state_in.occupations:
        weight_in *= math.factorial(n)
    for out in outs:
        weight = weight_in
        sub = []
        for row, m in zip(mode_rows, out.occupations):
            if m:
                weight *= math.factorial(m)
                sub += [row] * m
        yield permanent(_Rows(sub)) / math.sqrt(weight)


def scattering_amplitude(unitary, state_in: FockState, state_out: FockState) -> complex:
    """Transition amplitude <out| U |in> for non-interacting bosons.

    Equals the permanent of the unitary with column i repeated n_i times and
    row j repeated m_j times, divided by sqrt(prod n_i! * prod m_j!).
    ``unitary`` takes the same forms as in ``permanent``.  After checking the
    states against the unitary, it takes the amplitude from :func:`_amplitudes`,
    which passes each occupied output mode's row as one tuple for each of its
    photons, so ``permanent`` forms that row's sums once.
    """
    u = _square_rows(unitary, "unitary")
    modes = len(u)
    if state_in.modes != modes or state_out.modes != modes:
        raise ValueError(
            f"mode count mismatch: unitary has {modes}, states have "
            f"{state_in.modes} and {state_out.modes}")
    if state_in.total != state_out.total:
        raise ValueError(
            f"photon number mismatch: {state_in.total} in vs {state_out.total} out")
    return next(_amplitudes(u, state_in, [state_out]))


def apply_interferometer(state: PureState, unitary) -> PureState:
    """Linear extension of the scattering amplitudes to a full superposition;
    terms with ``|amplitude| <= fock.PRUNE`` are dropped.

    The unitary is checked once per call, each photon total's output basis
    is built once, and each input term makes one :func:`_amplitudes` pass over
    its total's basis, which sets up the columns, input weight and mode rows
    of that input state once for all of its outputs.
    """
    u = _square_rows(unitary, "unitary")
    if len(u) != state.modes:
        raise ValueError(
            f"unitary has {len(u)} modes, the state has {state.modes}")
    bases: dict[int, list[FockState]] = {}
    out_terms: dict[FockState, complex] = {}
    for fock, amp in state.terms.items():
        total = fock.total
        if total not in bases:
            bases[total] = fock_basis(total, state.modes)
        outs = bases[total]
        for out, a in zip(outs, _amplitudes(u, fock, outs)):
            a = amp * a
            if a != 0j:
                out_terms[out] = out_terms.get(out, 0j) + a
    return pure_state(out_terms, modes=state.modes)


def single_outcome_distribution(bs: BeamsplitterSpec) -> SinglePhotonDistribution:
    """One photon in, vacuum in the other port: transmit with T, reflect with R."""
    return SinglePhotonDistribution(bs.transmittance, bs.reflectance)


def pair_outcome_distribution(bs: BeamsplitterSpec,
                              d: DistinguishabilityParam) -> PairDistribution:
    """One photon in each input port, with tunable mutual distinguishability.

    Ideal bosons bunch: each both-photons-in-one-port outcome has probability
    2TR and the coincidence survives with (T - R)^2.  Distinguishable
    particles behave as independent coins: TR per bunch port, T^2 + R^2 for
    the coincidence.  The returned distribution is the eta-weighted mixture.
    """
    p_bunch, p_unresolved, resolved = _pair_probabilities(bs.transmittance, bs.reflectance, d.eta)
    return PairDistribution(p_bunch, p_bunch, p_unresolved, resolved)


def _pair_probabilities(T: float, R: float,
                        eta: float) -> tuple[float, float, tuple[float, float] | None]:
    """The one pair rule: (p_bunch per port, p_unresolved, (both t, both r) or None at eta = 1)."""
    resolved = ((1.0 - eta) * T * T, (1.0 - eta) * R * R) if eta < 1.0 else None
    return (1.0 + eta) * T * R, eta * (T - R) ** 2, resolved
