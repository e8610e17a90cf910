"""Contracts of the per-table path: the table ``sweep_eta`` builds at every grid
point, and the event sums that ``analyze`` and the library take from a table.

``run_context`` returns the tokens of ``OUTCOMES[ctx]`` in their order (both-t
and both-r left out at eta = 1), each with the value of the matching field of
``single_outcome_distribution`` or ``pair_outcome_distribution``, and refuses
anything that is not a context with ``ValueError``.  A table without a context
refuses it with ``ValueError``.  ``matching_mass`` and ``inequality_sum`` add
left to right from the int 0, so their bits are those of ``0 + p1 + ... + pk``.
"""

from __future__ import annotations

import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from bosonctx.optics import (
    BeamsplitterSpec,
    DistinguishabilityParam,
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
    """Each outcome's labels, in context order, mapped to the field that holds it."""
    single = single_outcome_distribution(bs)
    pair = pair_outcome_distribution(bs, d)
    fields = {(T,): single.p_transmitted, (R,): single.p_reflected,
              (T, R): pair.p_bunch_port1, (R, T): pair.p_bunch_port2, (): pair.p_unresolved}
    if pair.resolved_coincidence is not None:
        fields[T, T], fields[R, R] = pair.resolved_coincidence
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
