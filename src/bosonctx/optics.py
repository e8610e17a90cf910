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
from functools import cache, reduce
from itertools import accumulate, islice, repeat

import numpy as np

from .fock import FockState, PureState, _as_fock, _kept, complex_number, fock_basis, real_number


@dataclass(frozen=True, init=False)
class BeamsplitterSpec:
    """A lossless two-mode beamsplitter parametrized by a mixing angle in radians.
    ``transmittance`` T and ``reflectance`` R are set with ``theta`` and never change."""

    theta: float

    def __init__(self, theta: float) -> None:
        theta = real_number(theta, "theta")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r:.40}")
        self.__dict__.update(theta=theta, transmittance=math.cos(theta) ** 2,
                             reflectance=math.sin(theta) ** 2)  # past frozen; not fields


BALANCED = BeamsplitterSpec(math.pi / 4)


@dataclass(frozen=True, init=False, slots=True)
class DistinguishabilityParam:
    """Squared mode overlap of the two photons: 1 = identical, 0 = fully distinguishable."""

    eta: float

    def __init__(self, eta: float) -> None:
        eta = real_number(eta, "eta")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta!r:.40}")
        object.__setattr__(self, "eta", eta + 0.0)  # a zero overlap is 0.0, never -0.0


def beamsplitter_unitary(bs: BeamsplitterSpec) -> np.ndarray:
    """2x2 mode unitary of the beamsplitter in the fixed symmetric convention."""
    c, s = math.cos(bs.theta), math.sin(bs.theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


class _Row(tuple):
    """One checked row of Python complex.  ``walk`` is ``(block index, that
    block's running sums)``: the last block ``permanent`` formed for this object.
    ``chain`` is ``(block index, blocks, products)``, kept by the first row of
    the last submatrix ``permanent`` walked: the running-sum lists of that
    submatrix's rows but its last, and their products through each of those rows.
    It holds lists of numbers, never rows, so rows that repeat make no cycle."""

    walk: tuple[int, list] = (-1, [])
    chain: tuple[int, list, list] = (-1, [], [])


class _Matrix(tuple):
    """A checked square matrix of ``_Row``s, made only by ``_square_rows`` and ``_amplitudes``."""
    __slots__ = ()


def _square_rows(matrix, name: str) -> tuple[_Row, ...]:
    """The rows of a non-empty square matrix of numbers as a ``_Matrix``, which passes
    again on one type test, as a tuple of ``_Row``s of its own length passes after a
    scan of its rows; anything else is a ``ValueError``."""
    if type(matrix) is _Matrix or type(matrix) is tuple and matrix and all(
            type(row) is _Row and len(row) == len(matrix) for row in matrix):
        return matrix
    try:
        rows = _Matrix(_Row(complex_number(x, f"{name} entry") for x in row) for row in matrix)
    except TypeError:
        raise ValueError(f"{name} must be a square matrix of numbers") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} must be a non-empty square matrix, got {len(rows)} "
                         f"rows of lengths {sorted({len(row) for row in rows})!s:.40}")
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
    indices = (j if (k ^ k >> 1) >> j & 1 else n + j for k, j in flips)
    shared: dict[tuple, Callable] = {}
    getters = []
    while block := tuple(islice(indices, _WALK_BLOCK)):  # one block in memory, not 2^n steps
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

    The walk runs in blocks of at most ``_WALK_BLOCK`` steps, through the
    getters of :func:`_walk_getters`, so a call holds O(n * _WALK_BLOCK) sums.
    Each row forms its running sums for a block only if its ``walk`` lacks
    that block, going on from its previous block's last sum; a row passed
    again as the same object, as :func:`_amplitudes` passes a bunched output
    mode's row, or in a later call, reuses them.  Rows are matched by identity,
    never by equality, since 0.0 == -0.0.  On a walk of one block (n < 10),
    the first row's ``chain`` keeps the sums it multiplied in its last call
    and the products through each row but the last; a call goes on from the
    longest leading run of rows whose sums are those very lists, so the
    outputs of one input state, which :func:`_amplitudes` passes in
    lexicographic order, form each shared leading run's products once: 461
    row products, not 1260, for six photons in five modes.  Each term is the
    product of the rows' sums in row order from the int 1, as ``math.prod``
    forms it, and the signed terms are added in walk order; a subtraction is
    the addition of the negation in IEEE arithmetic, so every bit matches the
    step-by-step walk.
    """
    rows = _square_rows(matrix, "permanent")
    n = len(rows)
    first = rows[0]
    total = 0j
    for index, getter in enumerate(getters := _walk_getters(n)):
        held, blocks, products = first.chain
        first.chain = _Row.chain  # drop what is not reused before more sums form
        kept = 0
        while held == index and kept < n - 1 and rows[kept].walk[1] is blocks[kept]:
            kept += 1
        blocks, products = blocks[:kept], products[:kept]
        terms = products[-1] if kept else repeat(1)
        for row in rows[kept:]:
            walked, block = row.walk
            if walked != index:
                # past block 0, ``walk`` holds this row's previous block: go on from its last sum
                block = list(accumulate(getter(row + tuple(map(operator.neg, row))),
                                        initial=block[-1] if index else 0j))
                del block[0]
                row.walk = index, block
            terms = list(map(operator.mul, terms, block))
            blocks.append(block)
            products.append(terms)
        del blocks[-1], products[-1]  # the last row's products are this block's terms
        if len(getters) == 1:  # each call walks from block 0, so only a one-block chain is read
            first.chain = index, blocks, products
        terms[::2] = map(operator.neg, terms[::2])  # each block starts into an odd subset
        # reduce, not sum: newer Pythons sum floats and complexes with compensation
        total = reduce(operator.add, terms, total)
    return total if n % 2 == 0 else -total


def _amplitudes(u: tuple[_Row, ...], state_in: FockState, outs) -> Iterator[complex]:
    """<out| U |in> for each ``out`` in ``outs``, which hold the photon total of
    ``state_in``, through the checked unitary ``u``: the one amplitude rule.

    The columns, the input weight (1.0 times each n_i!, in mode order), and one
    ``_Row`` per mode with its runs of m = 0 to n rows and m! are built once per
    input state.  An output's ``_Matrix`` repeats each occupied mode's row once
    per photon in it, so ``permanent`` forms each mode row's running sums once
    per input state; its weight goes on from the input weight by each m_j!, in
    mode order (0! = 1 changes no bit and is skipped).
    """
    cols = [i for i, n in enumerate(state_in.occupations) for _ in range(n)]
    if not cols:  # the vacuum goes to the vacuum
        for _ in outs:
            yield 1 + 0j
        return
    mode_rows = [_Row(row[c] for c in cols) for row in u]
    runs = [[([row] * m, math.factorial(m)) for m in range(len(cols) + 1)] for row in mode_rows]
    weight_in = math.prod(map(math.factorial, state_in.occupations), start=1.0)
    for out in outs:
        weight = weight_in
        sub = []
        for run, m in zip(runs, out.occupations):
            if m:
                rows, factorial = run[m]
                weight *= factorial
                sub += rows
        yield permanent(_Matrix(sub)) / math.sqrt(weight)


def scattering_amplitude(unitary, state_in: FockState, state_out: FockState) -> complex:
    """Transition amplitude <out| U |in> for non-interacting bosons.

    Equals the permanent of the unitary with column i repeated n_i times and
    row j repeated m_j times, divided by sqrt(prod n_i! * prod m_j!).
    ``unitary`` takes the same forms as in ``permanent``; each state is a
    ``FockState`` or an occupation sequence, read as ``PureState.amplitude``
    reads its key.  After checking the states against the unitary, it takes
    the amplitude from :func:`_amplitudes`.
    """
    u = _square_rows(unitary, "unitary")
    state_in, state_out = _as_fock(state_in), _as_fock(state_out)
    modes = len(u)
    if state_in.modes != modes or state_out.modes != modes:
        raise ValueError(
            f"mode count mismatch: unitary has {modes!s:.40}, states have "
            f"{state_in.modes!s:.40} and {state_out.modes!s:.40}")
    if state_in.total != state_out.total:
        raise ValueError(
            f"photon number mismatch: {state_in.total!s:.40} in vs {state_out.total!s:.40} out")
    return next(_amplitudes(u, state_in, [state_out]))


def apply_interferometer(state: PureState, unitary) -> PureState:
    """Linear extension of the scattering amplitudes to a full superposition;
    terms with ``|amplitude| <= fock.PRUNE`` are dropped, and a NaN or infinite
    amplitude is refused, by ``fock._kept`` as in ``pure_state``.

    The unitary is checked once per call, each photon total's output basis is
    built once, and each input term makes one :func:`_amplitudes` pass over it.
    The sums are pruned in place and kept as the result: no key is hashed again.
    """
    if not isinstance(state, PureState):
        raise ValueError(f"state must be a PureState, got {state!r:.40}")
    u = _square_rows(unitary, "unitary")
    if len(u) != state.modes:
        raise ValueError(
            f"unitary has {len(u)} modes, the state has {state.modes!s:.40}")
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
    for out in [out for out, a in out_terms.items() if not _kept(a)]:
        del out_terms[out]  # in place, so no kept key is hashed again
    return PureState(out_terms, state.modes)


def single_outcome_distribution(bs: BeamsplitterSpec) -> tuple[float, float]:
    """One photon in, vacuum in the other port: (transmitted, reflected) = (T, R)."""
    return bs.transmittance, bs.reflectance


def pair_outcome_distribution(bs: BeamsplitterSpec, d: DistinguishabilityParam
                              ) -> tuple[float, float, tuple[float, float] | None]:
    """One photon in each input port, with tunable mutual distinguishability:
    the one pair rule, (p_bunch per port, p_unresolved, (both t, both r) or
    None at eta = 1).

    Ideal bosons bunch: each both-photons-in-one-port outcome has probability
    2TR and the unresolved coincidence keeps (T - R)^2.  Distinguishable
    particles behave as independent coins: TR per bunch port, T^2 and R^2 for
    the resolved both t and both r.  The result is the eta-weighted mixture.
    """
    eta, T, R = d.eta, bs.transmittance, bs.reflectance
    resolved = ((1.0 - eta) * T * T, (1.0 - eta) * R * R) if eta < 1.0 else None
    return (1.0 + eta) * T * R, eta * (T - R) ** 2, resolved
