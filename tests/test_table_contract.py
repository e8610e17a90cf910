"""Contracts of the per-table path: the table ``sweep_eta`` builds at every grid
point, and the event sums that ``analyze`` and the library take from a table.

``run_context`` returns the tokens of ``OUTCOMES[ctx]`` in their order (both-t
and both-r left out at eta = 1), each with the value, bit for bit, of the
matching entry of the tuples that ``single_outcome_distribution`` (T, R) and
``pair_outcome_distribution``, the one pair rule, return; both bunch ports
hold its one p_bunch.  It refuses anything that is not a context with
``ValueError``.  A table without a context refuses it with ``ValueError``.
``matching_mass``, ``inequality_sum`` and each context's sum in
``normalization_deviation`` add left to right from the int 0, so their bits are
those of ``0 + p1 + ... + pk`` on every Python, also where ``sum`` compensates.

Every ``run_context`` entry is also the readout of the internal-mode model in
the ``optics`` module docstring: in floats through ``apply_interferometer``,
and exactly, as a polynomial in T and eta, from expanding the model by hand
(``oracles.internal_mode_model``).
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bosonctx import contextuality, experiment
from bosonctx.contextuality import (
    PENTAGON,
    TRIANGLE,
    event_probability,
    inequality_sum,
    standard_events,
)
from bosonctx.experiment import (
    ALL_CONTEXTS,
    OUTCOMES,
    REFLECTED,
    TRANSMITTED,
    OutcomeTable,
    dump_json,
    full_table,
    matching_mass,
    parse_table,
    run_context,
)
from bosonctx.fock import basis_state, pure_state
from bosonctx.optics import (
    BeamsplitterSpec,
    DistinguishabilityParam,
    apply_interferometer,
    beamsplitter_unitary,
    pair_outcome_distribution,
    single_outcome_distribution,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
T, R = TRANSMITTED, REFLECTED


def _points(*rest):
    """Explicit examples at both ends of eta and at three splitters."""
    def add(test):
        for theta in (0.0, math.pi / 4, -7.3):
            for eta in (0.0, 1.0):
                test = example(theta, eta, *rest)(test)
        return test
    return add


def _fields(bs: BeamsplitterSpec, d: DistinguishabilityParam) -> dict[tuple[str, ...], float]:
    """Each outcome's labels, in context order, mapped to the entry of the
    closed-form tuples that holds it; both bunch ports hold the one p_bunch."""
    p_transmitted, p_reflected = single_outcome_distribution(bs)
    p_bunch, p_unresolved, resolved = pair_outcome_distribution(bs, d)
    fields = {(T,): p_transmitted, (R,): p_reflected,
              (T, R): p_bunch, (R, T): p_bunch, (): p_unresolved}
    if resolved is not None:
        fields[T, T], fields[R, R] = resolved
    return fields


@SETTINGS
@given(st.floats(-10, 10), st.floats(0, 1))
@_points()
def test_run_context_gives_the_outcome_tokens_and_the_distribution_fields(theta, eta):
    bs, d = BeamsplitterSpec(theta), DistinguishabilityParam(eta)
    fields = _fields(bs, d)
    for ctx in ALL_CONTEXTS:
        dist = run_context(ctx, bs, d)
        labels = {token: tuple(labels.values()) for token, labels in OUTCOMES[ctx].items()}
        expected = [token for token, values in labels.items()
                    if eta < 1 or values not in ((T, T), (R, R))]
        assert list(dist) == expected
        for token, p in dist.items():
            assert p == fields[labels[token]]
            assert type(p) is float and p.hex() == fields[labels[token]].hex()


def _model_readout(bs: BeamsplitterSpec, d: DistinguishabilityParam) -> dict[tuple, float]:
    """Each outcome's labels, in context order, mapped to its probability in the
    internal-mode model, through the permanent.  A single context sends one
    photon into port 1.  A pair context sends its first fiber's photon into
    port 1 in internal state |0> and its second fiber's into port 2 in
    sqrt(eta)|0> + sqrt(1 - eta)|1>, through U (x) I_2 on the modes (port 1,
    |0>), (port 1, |1>), (port 2, |0>), (port 2, |1>)."""
    u = beamsplitter_unitary(bs)
    single = {f.occupations: abs(a) ** 2
              for f, a in apply_interferometer(basis_state([1, 0]), u).terms.items()}
    u2 = [[u[p][q] if i == k else 0 for q in range(2) for k in range(2)]
          for p in range(2) for i in range(2)]
    pair_in = pure_state({(1, 0, 1, 0): math.sqrt(d.eta),
                          (1, 0, 0, 1): math.sqrt(1 - d.eta)}, modes=4)
    pair = {f.occupations: abs(a) ** 2 for f, a in apply_interferometer(pair_in, u2).terms.items()}
    readout = {(T,): single.get((1, 0), 0.0), (R,): single.get((0, 1), 0.0),
               # both photons in one port, whatever their internal modes
               (T, R): sum(p for occ, p in pair.items() if occ[0] + occ[1] == 2),
               (R, T): sum(p for occ, p in pair.items() if occ[2] + occ[3] == 2),
               (T, T): pair.get((1, 0, 0, 1), 0.0), (R, R): pair.get((0, 1, 1, 0), 0.0),
               (): pair.get((1, 0, 1, 0), 0.0)}
    # the readouts account for every output of both inputs
    assert abs(sum(readout.values()) - 2) <= 1e-12
    return readout


@SETTINGS
@given(st.floats(-10, 10), st.floats(0, 1))
@_points()
def test_run_context_is_the_internal_mode_model_through_the_permanent(theta, eta):
    bs, d = BeamsplitterSpec(theta), DistinguishabilityParam(eta)
    readout = _model_readout(bs, d)
    for ctx in ALL_CONTEXTS:
        dist = run_context(ctx, bs, d)
        for token, labels in OUTCOMES[ctx].items():
            # both-t and both-r are left out at eta = 1, where the model reads 0
            got = dist.get(token, 0.0)
            assert abs(got - readout[tuple(labels.values())]) <= 1e-12


def test_run_context_is_the_exact_internal_mode_model():
    """On ``Poly`` stand-ins for T, 1 - T and eta, every entry equals the hand
    expansion's readout with no tolerance, and the pair readouts sum to 1."""
    model = oracles.internal_mode_model()
    bs = SimpleNamespace(transmittance=oracles.T, reflectance=1 - oracles.T)
    d = SimpleNamespace(eta=oracles.ETA)
    for ctx in ALL_CONTEXTS:
        dist = run_context(ctx, bs, d)
        assert list(dist) == list(OUTCOMES[ctx])
        for token, labels in OUTCOMES[ctx].items():
            assert dist[token].terms == model[tuple(labels.values())].terms, (ctx, token)
    pairs = [p for labels, p in model.items() if len(labels) != 1]
    assert sum(pairs, oracles.Poly.of(0)).terms == {(0, 0): 1}


@pytest.mark.parametrize("ctx", ["XY", "", None, ["AB"]], ids=["XY", "empty", "None", "list"])
def test_run_context_refuses_what_is_no_context(ctx):
    with pytest.raises(ValueError, match="unknown context"):
        run_context(ctx, BeamsplitterSpec(0.3), DistinguishabilityParam(1.0))


def test_a_table_without_the_context_refuses_it():
    with pytest.raises(ValueError, match="^table has no context 'AB'$"):
        OutcomeTable(0.3, 1.0, {}).context_distribution("AB")


def test_matching_mass_of_no_match_is_the_int_zero():
    total = matching_mass({"at": 0.25, "ar": 0.75}, frozenset())
    assert total == 0 and type(total) is int


def test_the_sums_add_left_to_right_where_sum_compensates(monkeypatch):
    """From Python 3.12 ``sum`` adds floats with compensation; ``math.fsum``
    stands in for it here, in both modules, and changes no bit."""
    for module in (contextuality, experiment):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    table = full_table(BeamsplitterSpec(0.045558512065073664),
                       DistinguishabilityParam(0.46562265437810535))
    # fsum gives 1.010060277186432, 0.6 and a deviation of 0.0
    assert inequality_sum(table, standard_events(PENTAGON)).hex() == (1.0100602771864322).hex()
    assert matching_mass({"x": 0.1, "y": 0.2, "z": 0.3}, frozenset("xyz")).hex() == \
        (0.6000000000000001).hex()
    uneven = OutcomeTable(0.0, 1.0, {"A": {"at": 0.7, "ar": 0.2, "x": 0.1}})
    assert uneven.normalization_deviation() == (1.1102230246251565e-16, "A")


@SETTINGS
@given(st.floats(-10, 10), st.floats(0, 1), st.randoms(use_true_random=False))
@_points(random.Random(7))
def test_inequality_sum_adds_in_event_order_from_zero(theta, eta, rng):
    table = full_table(BeamsplitterSpec(theta), DistinguishabilityParam(eta))
    records = table.to_records()
    rng.shuffle(records)
    parsed = parse_table(dump_json({"theta": theta, "eta": eta, "records": records}))
    for test in (PENTAGON, TRIANGLE):
        events = standard_events(test)
        expected = 0
        for e in events:
            expected = expected + event_probability(parsed, e)
        total = inequality_sum(parsed, events)
        assert type(total) is float and total.hex() == expected.hex()
