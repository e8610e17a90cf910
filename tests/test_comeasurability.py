"""Events measured in one context never sum past the noncontextual bound."""

from __future__ import annotations

from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bosonctx.contextuality import EventSpec, inequality_sum, noncontextual_max
from bosonctx.experiment import (
    ALL_CONTEXTS,
    REFLECTED,
    TRANSMITTED,
    full_table,
)
from bosonctx.optics import BeamsplitterSpec, DistinguishabilityParam

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def requirement_sets(ctx: str) -> list[dict[str, str]]:
    """Every non-empty transmit/reflect requirement on the fibers of ``ctx``;
    each is met by some outcome of the context."""
    return [dict(zip(fibers, values))
            for k in range(1, len(ctx) + 1) for fibers in combinations(ctx, k)
            for values in product((TRANSMITTED, REFLECTED), repeat=k)]


def label(requirements: dict[str, str]) -> str:
    """A distinct name for each requirement set: its fibers and values in order."""
    return ",".join(fiber.lower() + value for fiber, value in sorted(requirements.items()))


@st.composite
def one_context_events(draw) -> list[EventSpec]:
    ctx = draw(st.sampled_from(ALL_CONTEXTS))
    chosen = draw(st.lists(st.sampled_from(requirement_sets(ctx)), min_size=1,
                           unique_by=label))
    return [EventSpec(label(r), ctx, r) for r in chosen]


@SETTINGS
@given(one_context_events(), st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
def test_events_of_one_context_never_sum_past_alpha(events, theta, eta):
    """Within one context, each outcome meets a set of pairwise compatible events,
    at most alpha of them, and the outcomes' probabilities sum to 1; ``coinc``
    meets none.  So the sum is the mean, weighted by outcome probability, of how
    many events each outcome meets, and never exceeds alpha.  A violation of the
    noncontextual bound therefore needs events from at least two contexts:
    exclusive events that are not comeasurable."""
    table = full_table(BeamsplitterSpec(theta), DistinguishabilityParam(eta))
    assert inequality_sum(table, events) <= noncontextual_max(events) + 1e-12

