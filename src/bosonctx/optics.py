"""Beamsplitter unitaries, permanent-based bosonic scattering, and the
closed-form one- and two-photon output distributions.

Conventions fixed here and relied on everywhere else:

* the two-mode beamsplitter unitary is the symmetric form
  ``[[cos t, i sin t], [i sin t, cos t]]`` with transmittance T = cos^2 t;
* "transmitted" means a photon leaves through the output port with the same
  number as its input port, "reflected" means it crosses over;
* partial distinguishability is a convex mixture: weight ``eta`` of ideal
  identical bosons plus weight ``1 - eta`` of classical distinguishable
  particles.  This keeps every probability non-negative for any splitting
  ratio and gives the usual two-photon coincidence formula
  ``T^2 + R^2 - 2 eta T R``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

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
        object.__setattr__(self, "eta", eta)


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


@cache
def _gray_schedule(n: int) -> tuple[tuple[int, Callable, bool], ...]:
    """The 2^n - 1 steps of the Gray-code walk over the non-empty column
    subsets of n columns, in walk order.

    Step k moves from Gray code ``(k-1) ^ ((k-1) >> 1)`` to ``k ^ (k >> 1)``:
    it adds or subtracts one column (``operator.add`` or ``operator.sub``),
    and ``odd`` tells whether the new subset has an odd size.  Each step is
    one of at most 4n shared tuples, so the schedule costs 2^n - 1 pointers:
    504 bytes at n = 6, about 8 MB at n = 20.  Built on first use of a size.
    """
    shared: dict[tuple, tuple] = {}
    steps = []
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        step = (changed.bit_length() - 1,
                operator.add if new_gray & changed else operator.sub,
                bool(new_gray.bit_count() & 1))
        steps.append(shared.setdefault(step, step))
        gray = new_gray
    return tuple(steps)


def permanent(matrix) -> complex:
    """Matrix permanent via Ryser's formula with Gray-code subset updates.

    ``matrix`` is a non-empty square list of lists, tuple of tuples or 2-D
    ``ndarray`` of numbers; anything else raises ``ValueError``.  Runs in
    O(2^n * n) for an n x n matrix in plain Python; exact up to floating point.
    The walk's steps come from :func:`_gray_schedule`, cached per size.
    """
    rows = _square_rows(matrix, "permanent")
    n = len(rows)
    cols = list(zip(*rows))
    row_sums = [0j] * n
    total = 0j
    for j, step, odd in _gray_schedule(n):
        row_sums = list(map(step, row_sums, cols[j]))
        term = math.prod(row_sums)
        if odd:
            total -= term
        else:
            total += term
    return total if n % 2 == 0 else -total


def scattering_amplitude(unitary, state_in: FockState, state_out: FockState) -> complex:
    """Transition amplitude <out| U |in> for non-interacting bosons.

    Equals the permanent of the unitary with column i repeated n_i times and
    row j repeated m_j times, divided by sqrt(prod n_i! * prod m_j!).
    ``unitary`` takes the same forms as in ``permanent``.
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
    if state_in.total == 0:
        return 1 + 0j

    cols = [i for i, n in enumerate(state_in.occupations) for _ in range(n)]
    sub = _Rows(tuple(u[i][c] for c in cols)
                for i, m in enumerate(state_out.occupations) for _ in range(m))
    weight = 1.0
    for n in state_in.occupations:
        weight *= math.factorial(n)
    for n in state_out.occupations:
        weight *= math.factorial(n)
    return permanent(sub) / math.sqrt(weight)


def apply_interferometer(state: PureState, unitary) -> PureState:
    """Linear extension of the scattering amplitudes to a full superposition;
    terms with ``|amplitude| <= fock.PRUNE`` are dropped."""
    u = _square_rows(unitary, "unitary")
    if len(u) != state.modes:
        raise ValueError(
            f"unitary has {len(u)} modes, the state has {state.modes}")
    bases: dict[int, list[FockState]] = {}
    out_terms: dict[FockState, complex] = {}
    for fock, amp in state.terms.items():
        if fock.total not in bases:
            bases[fock.total] = fock_basis(fock.total, state.modes)
        for out in bases[fock.total]:
            a = amp * scattering_amplitude(u, fock, out)
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
    T, R = bs.transmittance, bs.reflectance
    eta = d.eta
    p_bunch = (1.0 + eta) * T * R
    resolved = None
    if eta < 1.0:
        resolved = ((1.0 - eta) * T * T, (1.0 - eta) * R * R)
    return PairDistribution(p_bunch, p_bunch, eta * (T - R) ** 2, resolved)
