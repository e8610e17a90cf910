import dataclasses
import math
import operator
import random
from functools import reduce
from itertools import combinations, repeat

import pytest

from bosonctx.contextuality import (
    MAX_CYCLE_LENGTH,
    MAX_SWEEP_POINTS,
    PENTAGON,
    STANDARD_TESTS,
    TRIANGLE,
    EventSpec,
    ExclusivityGraph,
    _first_crossing,
    cycle_graph,
    derive_exclusivity,
    event_probability,
    events_exclusive,
    fractional_packing_max,
    independence_number,
    inequality_sum,
    lovasz_theta_odd_cycle,
    noncontextual_max,
    standard_bounds,
    standard_events,
    sweep_eta,
)
from bosonctx.experiment import (
    COINCIDENCE,
    OUTCOMES,
    OutcomeTable,
    dump_json,
    full_table,
    parse_table,
    run_context,
    write_csv,
)
from bosonctx.optics import BALANCED, BeamsplitterSpec, DistinguishabilityParam

from oracles import (
    all_assignments,
    assignment_noncontextual_max,
    assignment_satisfies,
    graph_has_edge,
    grid_packing_max,
    neighbour_lists,
    predicate_matching_mass,
    subset_independence_number,
    token_labels,
)

IDEAL = DistinguishabilityParam(1.0)

SQRT5 = math.sqrt(5)


def random_event_set(rng: random.Random, max_events: int = 6) -> list[EventSpec]:
    contexts = ["A", "B", "C", "AB", "AC", "BC"]
    events = []
    for i in range(rng.randint(1, max_events)):
        ctx = rng.choice(contexts)
        fibers = rng.sample(ctx, rng.randint(1, len(ctx)))
        reqs = {f: rng.choice("tr") for f in fibers}
        events.append(EventSpec(f"e{i}", ctx, reqs))
    return events


def random_graph(rng: random.Random, n: int, p: float) -> ExclusivityGraph:
    """G(n, p) on vertices v0..v{n-1}."""
    vertices = tuple(f"v{i}" for i in range(n))
    edges = frozenset(tuple(sorted(pair))
                      for pair in combinations(vertices, 2) if rng.random() < p)
    return ExclusivityGraph(vertices, edges)


def varied_graph(rng: random.Random, n: int) -> ExclusivityGraph:
    """One of three shapes on n vertices, given in shuffled vertex order: G(n, p); a
    random forest, each vertex joined to an earlier one or to none; or G(k, p) on the
    first k vertices with each of the rest hung on it as a pendant or left isolated.
    p is clipped from [-0.1, 1.1], so about one graph in eleven is edgeless and one
    complete."""
    names = [f"v{i}" for i in range(n)]
    p = min(1.0, max(0.0, rng.uniform(-0.1, 1.1)))
    shape = rng.randrange(3)
    if shape == 0:
        edges = {pair for pair in combinations(names, 2) if rng.random() < p}
    elif shape == 1:
        edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n) if rng.random() < 0.9}
    else:
        k = rng.randint(1, n)
        edges = {pair for pair in combinations(names[:k], 2) if rng.random() < p}
        edges |= {(names[rng.randrange(k)], v) for v in names[k:] if rng.random() < 0.5}
    rng.shuffle(names)
    return ExclusivityGraph(tuple(names), frozenset(edges))


class TestStandardEvents:
    def test_pentagon_definition(self):
        events = standard_events(PENTAGON)
        assert [e.label for e in events] == ["at", "ar,bt", "br,ct", "bt,cr", "ar,ct"]
        assert [e.context for e in events] == ["A", "AB", "BC", "BC", "AC"]
        assert events[0].requirements == {"A": "t"}
        assert events[1].requirements == {"A": "r", "B": "t"}
        assert events[4].requirements == {"A": "r", "C": "t"}

    def test_triangle_definition(self):
        events = standard_events(TRIANGLE)
        assert [e.label for e in events] == ["at,br", "bt,cr", "ar,ct"]
        assert all(len(e.requirements) == 2 for e in events)

    def test_triangle_shares_one_event_with_pentagon(self):
        pent = {e.label: e for e in standard_events(PENTAGON)}
        tri = {e.label: e for e in standard_events(TRIANGLE)}
        assert pent["ar,ct"].requirements == tri["ar,ct"].requirements

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError):
            standard_events("square")

    def test_event_validation(self):
        with pytest.raises(ValueError):
            EventSpec("bad", "AB", {})
        with pytest.raises(ValueError):
            EventSpec("bad", "AB", {"C": "t"})
        with pytest.raises(ValueError):
            EventSpec("bad", "AB", {"A": "x"})
        with pytest.raises(ValueError):
            EventSpec("bad", "AB", {"A": "T"})
        with pytest.raises(ValueError):
            EventSpec("bad", "AB", {"A": "t", "C": "t"})
        with pytest.raises(ValueError):
            EventSpec("bad", "BA", {"A": "t"})
        with pytest.raises(ValueError):
            EventSpec("bad", "AB", {"A": None})
        assert EventSpec("ok", "AB", {"B": "r"}).requirements == {"B": "r"}

    def test_tokens_are_resolved_once_and_stay_out_of_repr_and_equality(self):
        event = EventSpec("ok", "AB", {"B": "r"})
        assert event.tokens == {"at,br", "ar,br"}
        assert repr(event) == "EventSpec(label='ok', context='AB', requirements={'B': 'r'})"
        unresolved = EventSpec("ok", "AB", {"B": "r"})
        object.__setattr__(unresolved, "tokens", frozenset())
        assert event == unresolved
        with pytest.raises(TypeError):
            EventSpec("ok", "AB", {"B": "r"}, frozenset())

    def test_events_hash_by_label_and_context(self):
        assert len(set(standard_events(PENTAGON) + standard_events(PENTAGON))) == 5
        event = EventSpec("ok", "AB", {"B": "r"})
        assert hash(event) == hash(EventSpec("ok", "AB", {"B": "r"}))
        assert {event: 1}[EventSpec("ok", "AB", {"B": "r"})] == 1

    def test_only_the_events_own_context_tokens_count(self):
        # an unvalidated table listing another context's token under AB
        event = EventSpec("ok", "AB", {"B": "r"})
        table = OutcomeTable(0.3, 1.0, {"AB": {"at,br": 0.25, "br": 0.5, "br,ct": 0.125}})
        assert event_probability(table, event) == 0.25


PENTAGON_REPR = (
    "[EventSpec(label='at', context='A', requirements={'A': 't'}), "
    "EventSpec(label='ar,bt', context='AB', requirements={'A': 'r', 'B': 't'}), "
    "EventSpec(label='br,ct', context='BC', requirements={'B': 'r', 'C': 't'}), "
    "EventSpec(label='bt,cr', context='BC', requirements={'B': 't', 'C': 'r'}), "
    "EventSpec(label='ar,ct', context='AC', requirements={'A': 'r', 'C': 't'})]")
TRIANGLE_REPR = (
    "[EventSpec(label='at,br', context='AB', requirements={'A': 't', 'B': 'r'}), "
    "EventSpec(label='bt,cr', context='BC', requirements={'B': 't', 'C': 'r'}), "
    "EventSpec(label='ar,ct', context='AC', requirements={'A': 'r', 'C': 't'})]")


def reachable(value):
    """``value`` and everything inside it, for tuples and read-only mappings."""
    yield value
    if isinstance(value, (tuple, type(STANDARD_TESTS))):
        items = value.items() if hasattr(value, "items") else value
        for item in items:
            yield from reachable(item)


class TestStandardTestTable:
    def test_events_are_pinned_with_contexts_and_requirement_order(self):
        assert repr(standard_events(PENTAGON)) == PENTAGON_REPR
        assert repr(standard_events(TRIANGLE)) == TRIANGLE_REPR

    def test_the_table_names_both_tests_in_order(self):
        assert list(STANDARD_TESTS) == [PENTAGON, TRIANGLE]

    def test_bounds(self):
        theta = lovasz_theta_odd_cycle(5)
        assert standard_bounds(PENTAGON) == {"noncontextual": 2, "quantum": theta}
        assert list(standard_bounds(PENTAGON)) == ["noncontextual", "quantum"]
        assert standard_bounds(TRIANGLE) == {"noncontextual": 1}

    def test_noncontextual_bounds_are_ints_from_the_assignment_oracle(self):
        for test in STANDARD_TESTS:
            alpha = standard_bounds(test)["noncontextual"]
            assert type(alpha) is int
            assert alpha == assignment_noncontextual_max(standard_events(test))

    def test_each_event_names_one_entry_present_at_every_eta(self):
        """``sweep_eta`` reads each point's sum from the one entry each standard
        event names: a single-fiber or bunching outcome, never ``coinc`` and never
        the both-t or both-r entry that eta = 1 leaves out."""
        for test in STANDARD_TESTS:
            for event in standard_events(test):
                assert len(event.tokens) == 1
                (token,) = event.tokens
                labels = token_labels(token)
                assert token != COINCIDENCE
                assert len(labels) == 1 or sorted(labels.values()) == ["r", "t"]
                for theta in (0.0, 0.3, math.pi / 4):
                    for eta in (0.0, 0.37, 1.0):
                        dist = run_context(event.context, BeamsplitterSpec(theta),
                                           DistinguishabilityParam(eta))
                        assert token in dist

    @pytest.mark.parametrize("test", [["pentagon"], None, "square", "Pentagon", 5, {}])
    def test_unknown_tests_are_value_errors(self, test):
        message = "^unknown test .*; expected 'pentagon' or 'triangle'$"
        with pytest.raises(ValueError, match=message):
            standard_events(test)
        with pytest.raises(ValueError, match=message):
            standard_bounds(test)

    def test_everything_the_table_holds_is_immutable(self):
        for value in reachable(STANDARD_TESTS):
            assert isinstance(value, (tuple, str, int, type(None), type(STANDARD_TESTS)))
        with pytest.raises(TypeError):
            STANDARD_TESTS[PENTAGON] = STANDARD_TESTS[TRIANGLE]
        with pytest.raises(TypeError):
            del STANDARD_TESTS[TRIANGLE]
        with pytest.raises(TypeError):
            STANDARD_TESTS[PENTAGON][0][0] = (("A", "r"),)

    def test_changing_a_result_does_not_change_the_next_one(self):
        events = standard_events(TRIANGLE)
        events[0].requirements["A"] = "r"
        events.append(events[0])
        bounds = standard_bounds(PENTAGON)
        bounds["quantum"] = 3.0
        assert repr(standard_events(TRIANGLE)) == TRIANGLE_REPR
        assert standard_bounds(PENTAGON)["quantum"] == lovasz_theta_odd_cycle(5)
        copy = STANDARD_TESTS.copy()
        copy[PENTAGON] = copy[TRIANGLE]
        assert repr(standard_events(PENTAGON)) == PENTAGON_REPR


class TestDeriveExclusivity:
    def test_pentagon_is_a_five_cycle(self):
        events = standard_events(PENTAGON)
        graph = derive_exclusivity(events)
        labels = [e.label for e in events]
        expected = {tuple(sorted((labels[i], labels[(i + 1) % 5]))) for i in range(5)}
        assert set(graph.edges) == expected

    def test_triangle_is_complete(self):
        events = standard_events(TRIANGLE)
        graph = derive_exclusivity(events)
        labels = [e.label for e in events]
        expected = {tuple(sorted(pair)) for pair in combinations(labels, 2)}
        assert set(graph.edges) == expected

    def test_disjoint_compatible_events_share_no_edge(self):
        events = standard_events(PENTAGON)
        a, btc = events[0], events[3]  # at and bt,cr touch different fibers
        assert not events_exclusive(a, btc)
        assert not graph_has_edge(derive_exclusivity(events), a.label, btc.label)

    def test_duplicate_labels_rejected(self):
        event = standard_events(TRIANGLE)[0]
        compatible = [EventSpec("e", "A", {"A": "t"}), EventSpec("e", "BC", {"B": "r"})]
        exclusive = [EventSpec("e", "A", {"A": "t"}), EventSpec("e", "A", {"A": "r"})]
        for events in ([event, event], compatible, exclusive):
            with pytest.raises(ValueError, match="labels must be distinct"):
                derive_exclusivity(events)

    def test_graph_rejects_self_loops_and_unknown_vertices(self):
        with pytest.raises(ValueError):
            ExclusivityGraph(("u", "v"), frozenset({("u", "u")}))
        with pytest.raises(ValueError):
            ExclusivityGraph(("u", "v"), frozenset({("u", "w")}))

    def test_events_that_are_not_event_specs_are_value_errors(self):
        # the last list leads with a good event: every event is checked, not only the first
        for events in (["a"], "ab", [None], [standard_events(PENTAGON)[0], "x"]):
            with pytest.raises(ValueError, match="^an event must be an EventSpec, got "):
                derive_exclusivity(events)

    @pytest.mark.parametrize("events", [None, 7, 10**5000], ids=["none", "int", "huge-int"])
    def test_events_that_are_not_iterable_are_value_errors(self, events):
        with pytest.raises(ValueError, match="^events must be an iterable of EventSpec, got "):
            derive_exclusivity(events)

    def test_edges_agree_with_zero_joint_assignment_count(self):
        # an edge must appear exactly when no global assignment satisfies both
        rng = random.Random(42)
        event_sets = [standard_events(PENTAGON), standard_events(TRIANGLE)]
        event_sets += [random_event_set(rng) for _ in range(100)]
        for events in event_sets:
            events = [EventSpec(f"x{i}", e.context, e.requirements)  # dedupe labels
                      for i, e in enumerate(events)]
            graph = derive_exclusivity(events)
            for e1, e2 in combinations(events, 2):
                satisfying = sum(assignment_satisfies(a, e1) and assignment_satisfies(a, e2)
                                 for a in all_assignments())
                assert graph_has_edge(graph, e1.label, e2.label) == (satisfying == 0)


class TestEventProbability:
    def test_reference_probabilities(self):
        table = full_table(BALANCED, IDEAL)
        events = {e.label: e for e in standard_events(PENTAGON)}
        assert event_probability(table, events["ar,bt"]) == pytest.approx(0.5, abs=1e-12)
        assert event_probability(table, events["at"]) == pytest.approx(0.5, abs=1e-12)

    def test_distinguishable_probability(self):
        table = full_table(BALANCED, DistinguishabilityParam(0.0))
        event = standard_events(PENTAGON)[1]
        assert event_probability(table, event) == pytest.approx(0.25, abs=1e-12)

    def test_missing_context_rejected(self):
        table = full_table(BALANCED, IDEAL)
        partial = OutcomeTable(table.theta, table.eta,
                               {c: d for c, d in table.contexts.items() if c != "AB"})
        with pytest.raises(ValueError):
            event_probability(partial, standard_events(PENTAGON)[1])

    def test_unresolved_coincidence_never_counts(self):
        # at theta=0 all pair mass is coincidence for identical photons, and a
        # mixed transmit/reflect event draws nothing from it
        table = full_table(BeamsplitterSpec(0.0), IDEAL)
        event = standard_events(PENTAGON)[1]
        assert event_probability(table, event) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("event", ["at", ("A", "at"), None, {"A": "t"}],
                             ids=["token", "entry", "none", "requirements"])
    def test_an_event_that_is_not_an_event_spec_is_a_value_error(self, event):
        with pytest.raises(ValueError, match="^an event must be an EventSpec, got "):
            event_probability(full_table(BALANCED, IDEAL), event)


class TestInequalitySum:
    def test_pentagon_reaches_five_halves(self):
        table = full_table(BALANCED, IDEAL)
        assert inequality_sum(table, standard_events(PENTAGON)) == pytest.approx(2.5, abs=1e-12)

    def test_triangle_reaches_three_halves(self):
        table = full_table(BALANCED, IDEAL)
        assert inequality_sum(table, standard_events(TRIANGLE)) == pytest.approx(1.5, abs=1e-12)

    def test_pentagon_with_distinguishable_photons(self):
        table = full_table(BALANCED, DistinguishabilityParam(0.0))
        assert inequality_sum(table, standard_events(PENTAGON)) == pytest.approx(1.5, abs=1e-12)

    def test_events_that_are_not_event_specs_are_value_errors(self):
        table = full_table(BALANCED, IDEAL)
        for events in (["at"], "at", [*standard_events(PENTAGON), "ar,bt"]):
            with pytest.raises(ValueError, match="^an event must be an EventSpec, got "):
                inequality_sum(table, events)

    @pytest.mark.parametrize("events", [None, 7], ids=["none", "int"])
    def test_events_that_are_not_iterable_are_value_errors(self, events):
        with pytest.raises(ValueError, match="^events must be an iterable of EventSpec, got "):
            inequality_sum(full_table(BALANCED, IDEAL), events)


class TestNoncontextualMax:
    def test_pentagon_bound(self):
        assert noncontextual_max(standard_events(PENTAGON)) == 2

    def test_triangle_bound(self):
        assert noncontextual_max(standard_events(TRIANGLE)) == 1

    def test_single_event(self):
        assert noncontextual_max(standard_events(PENTAGON)[:1]) == 1

    def test_events_that_are_not_event_specs_are_value_errors(self):
        for events in ("ab", ["at", "ar"], [standard_events(PENTAGON)[0], 1]):
            with pytest.raises(ValueError, match="^an event must be an EventSpec, got "):
                noncontextual_max(events)

    @pytest.mark.parametrize("events", [None, 7], ids=["none", "int"])
    def test_events_that_are_not_iterable_are_value_errors(self, events):
        with pytest.raises(ValueError, match="^events must be an iterable of EventSpec, got "):
            noncontextual_max(events)

    def test_equals_independence_number_of_derived_graph(self):
        rng = random.Random(7)
        event_sets = [standard_events(PENTAGON), standard_events(TRIANGLE)]
        event_sets += [random_event_set(rng) for _ in range(100)]
        for events in event_sets:
            events = [EventSpec(f"x{i}", e.context, e.requirements)
                      for i, e in enumerate(events)]
            graph = derive_exclusivity(events)
            assert independence_number(graph) == assignment_noncontextual_max(events)
            assert noncontextual_max(events) == assignment_noncontextual_max(events)


class TestIndependenceNumber:
    def test_five_cycle(self):
        assert independence_number(cycle_graph(5)) == 2

    def test_triangle(self):
        assert independence_number(cycle_graph(3)) == 1

    def test_edgeless_graph(self):
        graph = ExclusivityGraph(("a", "b", "c", "d"), frozenset())
        assert independence_number(graph) == 4
        assert independence_number(ExclusivityGraph((), frozenset())) == 0

    def test_matches_subset_enumeration(self):
        rng = random.Random(23)
        for _ in range(30):
            graph = random_graph(rng, rng.randint(1, 9), 0.4)
            assert independence_number(graph) == subset_independence_number(graph)

    def test_matches_subset_enumeration_on_trees_and_pendant_vertices(self):
        rng = random.Random(2014)
        for _ in range(300):
            graph = varied_graph(rng, rng.randint(1, 14))
            assert independence_number(graph) == subset_independence_number(graph)

    @pytest.mark.parametrize("shape, alpha", [("path", 12), ("cycle", 12), ("star", 23),
                                              ("matching", 12), ("edgeless", 24)])
    def test_closed_forms_on_24_vertices(self, shape, alpha):
        names = tuple(f"v{i}" for i in range(24))
        edges = {"path": zip(names, names[1:]), "cycle": zip(names, names[1:] + names[:1]),
                 "star": zip(repeat(names[0]), names[1:]),
                 "matching": zip(names[::2], names[1::2]), "edgeless": ()}[shape]
        result = independence_number(ExclusivityGraph(names, frozenset(edges)))
        assert result == alpha and type(result) is int

    @pytest.mark.parametrize("graph", ["abc", None, ("a", "b"), 10**5000],
                             ids=["text", "none", "tuple", "huge-int"])
    def test_a_graph_that_is_not_an_exclusivity_graph_is_a_value_error(self, graph):
        with pytest.raises(ValueError, match="^a graph must be an ExclusivityGraph, got "):
            independence_number(graph)

    def test_vertex_limit(self):
        big = ExclusivityGraph(tuple(f"v{i}" for i in range(25)), frozenset())
        with pytest.raises(ValueError):
            independence_number(big)

    def test_cycle_graph_needs_an_integer_of_at_least_three(self):
        for bad in (2, 0, -5, 4.5, float("inf"), float("-inf"), float("nan"), "5", None):
            with pytest.raises(ValueError):
                cycle_graph(bad)
        assert cycle_graph(4.0) == cycle_graph(4)

    @pytest.mark.parametrize("n", [MAX_CYCLE_LENGTH + 1, 10**12, 10**300, 1e300])
    def test_cycle_graph_refuses_lengths_over_the_cap_before_building(self, n):
        with pytest.raises(ValueError, match=f"^cycle length limited to {MAX_CYCLE_LENGTH}, got"):
            cycle_graph(n)

    def test_cycle_graph_builds_up_to_the_cap(self):
        graph = cycle_graph(MAX_CYCLE_LENGTH)
        assert len(graph.vertices) == len(graph.edges) == MAX_CYCLE_LENGTH


class TestNeighbourIndex:
    """``ExclusivityGraph.neighbours``: each vertex's neighbour indices, built once
    when the graph is made and read by both bound algorithms."""

    def test_matches_the_pair_oracle_on_random_graphs(self):
        rng = random.Random(27)
        for _ in range(60):
            graph = random_graph(rng, rng.randint(0, 12), rng.random())
            assert all(type(ns) is tuple for ns in graph.neighbours)
            assert [sorted(ns) for ns in graph.neighbours] == neighbour_lists(graph)

    def test_an_edge_in_both_orientations_is_listed_twice(self):
        rng = random.Random(2008)
        for _ in range(40):
            graph = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.6))
            flipped = frozenset((v, u) for u, v in graph.edges if rng.random() < 0.5)
            both = ExclusivityGraph(graph.vertices, graph.edges | flipped)
            assert [sorted(ns) for ns in both.neighbours] == neighbour_lists(both)
            assert sum(map(len, both.neighbours)) == 2 * len(graph.edges) + 2 * len(flipped)
            assert independence_number(both) == subset_independence_number(graph)
            assert fractional_packing_max(both) == grid_packing_max(graph, 2)

    def test_isolated_vertices_have_empty_lists(self):
        graph = ExclusivityGraph(("a", "b", "c", "d"),
                                 frozenset({("a", "b"), ("b", "a"), ("b", "c")}))
        assert [sorted(ns) for ns in graph.neighbours] == [[1, 1], [0, 0, 2], [1], []]
        assert ExclusivityGraph((), frozenset()).neighbours == ()
        assert independence_number(graph) == 3 and fractional_packing_max(graph) == 3.0

    def test_is_not_part_of_repr_equality_or_hash(self):
        graph = cycle_graph(5)
        twin = ExclusivityGraph(graph.vertices, graph.edges)
        object.__setattr__(twin, "neighbours", ())
        assert twin == graph and hash(twin) == hash(graph) and repr(twin) == repr(graph)
        assert repr(graph) == (f"ExclusivityGraph(vertices={graph.vertices!r}, "
                               f"edges={graph.edges!r})")
        with pytest.raises(TypeError):
            ExclusivityGraph(graph.vertices, graph.edges, graph.neighbours)
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.neighbours = ()

    def test_replace_rebuilds_it(self):
        path = dataclasses.replace(cycle_graph(4), edges=frozenset({("v0", "v1"), ("v1", "v2")}))
        assert [sorted(ns) for ns in path.neighbours] == [[1], [0, 2], [1], []]
        assert independence_number(path) == 3


class TestLovaszThetaOddCycle:
    def test_pentagon_value_is_sqrt_five(self):
        assert lovasz_theta_odd_cycle(5) == pytest.approx(SQRT5, abs=1e-12)

    def test_three_cycle(self):
        assert lovasz_theta_odd_cycle(3) == pytest.approx(1.0, abs=1e-12)

    def test_seven_cycle(self):
        c = math.cos(math.pi / 7)
        assert lovasz_theta_odd_cycle(7) == pytest.approx(7 * c / (1 + c), abs=1e-15)
        assert lovasz_theta_odd_cycle(7) == pytest.approx(3.3176672073940964, abs=1e-12)

    def test_even_or_small_n_rejected(self):
        for bad in (4, 2, 1, 0, -3, 6, 5.5, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                lovasz_theta_odd_cycle(bad)

    def test_sandwich_between_classical_and_algebraic(self):
        alpha = independence_number(cycle_graph(5))
        frac = fractional_packing_max(cycle_graph(5))
        assert alpha <= lovasz_theta_odd_cycle(5) <= frac


class TestFractionalPackingMax:
    def test_five_cycle(self):
        assert fractional_packing_max(cycle_graph(5)) == 2.5

    def test_triangle(self):
        assert fractional_packing_max(cycle_graph(3)) == 1.5

    def test_edgeless_graph(self):
        graph = ExclusivityGraph(("a", "b", "c"), frozenset())
        assert fractional_packing_max(graph) == 3.0
        assert fractional_packing_max(ExclusivityGraph((), frozenset())) == 0.0

    @pytest.mark.parametrize("graph", ["abc", None, ("a", "b"), 10**5000],
                             ids=["text", "none", "tuple", "huge-int"])
    def test_a_graph_that_is_not_an_exclusivity_graph_is_a_value_error(self, graph):
        with pytest.raises(ValueError, match="^a graph must be an ExclusivityGraph, got "):
            fractional_packing_max(graph)

    def test_matches_quarter_step_grid_oracle(self):
        for graph in (cycle_graph(5), cycle_graph(3), cycle_graph(7)):
            assert fractional_packing_max(graph) == grid_packing_max(graph, 4)

    def test_large_odd_cycles(self):
        assert fractional_packing_max(cycle_graph(13)) == 6.5
        assert fractional_packing_max(cycle_graph(501)) == 250.5

    def test_complete_graph_is_half_n(self):
        for n in range(2, 15):
            names = tuple(f"v{i}" for i in range(n))
            graph = ExclusivityGraph(names, frozenset(combinations(names, 2)))
            assert fractional_packing_max(graph) == n / 2

    def test_a_100_000_cycle_and_path(self):
        # fast only while an augmentation costs no pass over all n vertices
        assert fractional_packing_max(cycle_graph(100_000)) == 50000.0
        names = tuple(f"v{i}" for i in range(100_000))
        path = ExclusivityGraph(names, frozenset(zip(names, names[1:])))
        assert fractional_packing_max(path) == 50000.0

    def test_long_shuffled_path_needs_no_recursion(self):
        names = [f"v{i}" for i in range(4000)]
        edges = frozenset(tuple(sorted(pair)) for pair in zip(names, names[1:]))
        order = names[:]
        random.Random(4000).shuffle(order)
        assert fractional_packing_max(ExclusivityGraph(tuple(order), edges)) == 2000.0

    def test_matches_half_step_grid_oracle_on_random_graphs(self):
        rng = random.Random(2014)
        for _ in range(200):
            graph = random_graph(rng, rng.randint(0, 8), rng.random())
            assert fractional_packing_max(graph) == grid_packing_max(graph, 2)

    def test_matches_half_step_grid_oracle_in_shuffled_vertex_order(self):
        rng = random.Random(2012)
        for _ in range(200):
            graph = varied_graph(rng, rng.randint(1, 8))
            result = fractional_packing_max(graph)
            assert result == grid_packing_max(graph, 2) and type(result) is float

    def test_matches_linprog_on_30_vertex_graphs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(1974)
        for _ in range(20):
            graph = random_graph(rng, 30, rng.uniform(0.05, 0.4))
            index = {v: i for i, v in enumerate(graph.vertices)}
            rows = [[1.0 if i in (index[u], index[v]) else 0.0 for i in range(30)]
                    for u, v in sorted(graph.edges)]
            result = linprog([-1.0] * 30, A_ub=rows, b_ub=[1.0] * len(rows),
                             bounds=[(0.0, 1.0)] * 30)
            assert result.status == 0
            assert fractional_packing_max(graph) == pytest.approx(-result.fun, abs=1e-7)


class TestSweepEta:
    def test_pentagon_sum_is_linear_in_eta(self):
        result = sweep_eta(PENTAGON, BALANCED)
        for eta, total in zip(result.etas, result.sums):
            assert total == pytest.approx(1.5 + eta, abs=1e-12)

    def test_triangle_sum_is_linear_in_eta(self):
        result = sweep_eta(TRIANGLE, BALANCED)
        for eta, total in zip(result.etas, result.sums):
            assert total == pytest.approx(0.75 * (1 + eta), abs=1e-12)

    def test_pentagon_crossings(self):
        result = sweep_eta(PENTAGON, BALANCED)
        assert result.crossings["noncontextual"] == pytest.approx(0.5, abs=1e-9)
        assert result.crossings["quantum"] == pytest.approx(SQRT5 - 1.5, abs=1e-9)

    def test_triangle_crossing(self):
        result = sweep_eta(TRIANGLE, BALANCED)
        assert result.crossings["noncontextual"] == pytest.approx(1 / 3, abs=1e-9)
        assert "quantum" not in result.crossings

    def test_sum_is_monotone_in_eta(self):
        for test in (PENTAGON, TRIANGLE):
            result = sweep_eta(test, BALANCED, steps=21)
            assert all(b > a for a, b in zip(result.sums, result.sums[1:]))

    def test_no_crossing_reported_when_bound_unreached(self):
        result = sweep_eta(PENTAGON, BeamsplitterSpec(0.1))
        assert result.crossings["noncontextual"] is None

    def test_custom_grid_and_validation(self):
        result = sweep_eta(PENTAGON, BALANCED, etas=[0.0, 0.5, 1.0])
        assert result.etas == (0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            sweep_eta(PENTAGON, BALANCED, etas=[0.0, 1.5])
        with pytest.raises(ValueError):
            sweep_eta(PENTAGON, BALANCED, etas=[0.5, 0.2])
        with pytest.raises(ValueError):
            sweep_eta(PENTAGON, BALANCED, etas=[0.5])
        for not_iterable in (5, object()):
            with pytest.raises(ValueError, match="eta grid must be iterable"):
                sweep_eta(PENTAGON, BALANCED, not_iterable)
        with pytest.raises(ValueError):
            sweep_eta(PENTAGON, BALANCED, steps=1)
        for eta in (-0.1, math.nan):
            with pytest.raises(ValueError, match="eta must lie in"):
                sweep_eta(PENTAGON, BALANCED, etas=[eta, 0.5])
        for steps in (2.5, math.inf, math.nan, "5"):
            with pytest.raises(ValueError, match="whole number"):
                sweep_eta(PENTAGON, BALANCED, steps=steps)
        assert sweep_eta(PENTAGON, BALANCED, steps=5.0) == sweep_eta(PENTAGON, BALANCED, steps=5)
        # grid points follow the table-number rule: no booleans, text that reads as a float
        for grid in ([False, "0.5", True], [0.0, True], [0.0, 10**400], [0.0, "x"]):
            with pytest.raises(ValueError, match="eta must be a number"):
                sweep_eta(TRIANGLE, BALANCED, etas=grid)
        assert sweep_eta(TRIANGLE, BALANCED, etas=[0, "0.5", 1]).etas == (0.0, 0.5, 1.0)

    def test_steps_none_means_steps_not_given(self):
        default = sweep_eta(TRIANGLE, BALANCED)
        assert len(default.etas) == 101
        assert sweep_eta(TRIANGLE, BALANCED, steps=None) == default
        assert sweep_eta(TRIANGLE, BALANCED, None, steps=101) == default
        assert sweep_eta(TRIANGLE, BALANCED, [0, 0.5, 1], steps=None).etas == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("steps", ["junk", 10**9, 3], ids=["text", "huge", "grid-length"])
    def test_a_grid_given_with_steps_is_refused(self, steps):
        """``steps`` is never ignored: with a grid it is refused, even when it
        equals the grid's length."""
        with pytest.raises(ValueError, match="^give an eta grid or steps, not both; got steps "):
            sweep_eta(TRIANGLE, BALANCED, [0, 0.5, 1], steps=steps)

    @pytest.mark.parametrize("grid", ["01", b"\x00\x01", bytearray(b"\x00\x01"), "0x"],
                             ids=["text", "bytes", "bytearray", "unreadable-text"])
    def test_a_text_or_bytes_grid_is_refused_before_any_point_is_read(self, grid):
        with pytest.raises(ValueError, match="^eta grid must not be text or bytes"):
            sweep_eta(PENTAGON, BALANCED, grid)

    def test_oversized_grid_is_refused_before_it_is_built(self):
        for steps in (MAX_SWEEP_POINTS + 1, 10**12, float(10**12)):
            with pytest.raises(ValueError, match="sweep limited to 100001 grid points"):
                sweep_eta(PENTAGON, BALANCED, steps=steps)
        # an endless grid is read no further than one point past the cap
        with pytest.raises(ValueError, match="sweep limited to 100001 grid points"):
            sweep_eta(PENTAGON, BALANCED, etas=repeat(0.5))

    def test_exact_grid_hit_is_reported_exactly(self):
        result = sweep_eta(PENTAGON, BALANCED, etas=[0.0, 0.5, 1.0])
        # 3/2 + 1/2 = 2 exactly in binary floating point
        assert result.crossings["noncontextual"] == 0.5

    @pytest.mark.parametrize(("etas", "sums"), [([0.18, 0.66, 1.0], [2.58, 2.0, 1.5]),
                                                ([0.18, 0.66], [2.58, 2.0])],
                             ids=["inner", "last"])
    def test_a_hit_at_an_intervals_right_end_is_that_grid_point(self, etas, sums):
        """The series meets the bound 2 at 0.66, the right end of [0.18, 0.66]:
        interpolating on that interval would give 0.6599999999999999."""
        assert _first_crossing(etas, sums, 2.0).hex() == (0.66).hex()

    def test_exact_hit_on_the_last_grid_point_is_a_crossing(self):
        result = sweep_eta(PENTAGON, BALANCED, etas=[0.0, 0.25, 0.5])
        assert result.sums == (1.5, 1.75, 2.0)
        assert result.crossings["noncontextual"] == 0.5
        short = sweep_eta(PENTAGON, BALANCED, etas=[0.0, 0.25, 0.49])
        assert short.crossings["noncontextual"] is None


def _bits(values) -> list:
    """Each value's type and exact bits (an empty sum is the int 0)."""
    return [None if v is None else (type(v), float(v).hex()) for v in values]


class TestCompiledEvents:
    """Events resolved to their tokens once give the same bits as testing every
    token with the predicate (``oracles.predicate_matching_mass``)."""

    THETAS = [-0.3 + k * math.pi / 11 for k in range(12)]

    def test_sweep_is_bit_identical_to_the_predicate(self):
        rng = random.Random(17)
        edges = [-0.0, 5e-324, 0.5, 0.999999, 1.0]
        for theta in self.THETAS + [0.0, -0.0, math.pi / 2, -7.3]:
            bs = BeamsplitterSpec(theta)
            uneven = sorted({0.0, 1.0, *(rng.random() for _ in range(99))})
            for grid in (None, uneven, edges):
                for test in (PENTAGON, TRIANGLE):
                    result = (sweep_eta(test, bs, steps=101) if grid is None
                              else sweep_eta(test, bs, grid))
                    etas = list(result.etas)
                    assert math.copysign(1, etas[0]) == 1  # a grid point of -0.0 reads 0.0
                    sums = [reduce(operator.add,
                                   (predicate_matching_mass(table.contexts[e.context],
                                                            e.requirements)
                                    for e in standard_events(test)), 0)
                            for table in (full_table(bs, DistinguishabilityParam(eta))
                                          for eta in etas)]
                    assert _bits(result.sums) == _bits(sums)
                    crossings = {name: _first_crossing(etas, sums, bound)
                                 for name, bound in result.bounds.items()}
                    assert list(result.crossings) == list(crossings)
                    assert _bits(result.crossings.values()) == _bits(crossings.values())

    def test_event_probability_on_shuffled_parsed_tables(self):
        rng = random.Random(23)
        # the standard events plus every requirement set some outcome of a context meets
        keys = {(ctx, frozenset(subset)) for ctx, outcomes in OUTCOMES.items()
                for labels in outcomes.values()
                for k in range(1, len(labels) + 1) for subset in combinations(labels.items(), k)}
        events = standard_events(PENTAGON) + standard_events(TRIANGLE) + [
            EventSpec("any", ctx, dict(key)) for ctx, key in keys]
        reordered = 0
        for theta in self.THETAS:
            for eta in (0.0, 0.37, 1.0):
                table = full_table(BeamsplitterSpec(theta), DistinguishabilityParam(eta))
                records = table.to_records()
                rng.shuffle(records)
                texts = (dump_json({"theta": theta, "eta": eta, "records": records}),
                         write_csv({"theta": theta, "eta": eta},
                                   ("context", "outcome", "probability"),
                                   ((r["context"], r["outcome"], r["probability"])
                                    for r in records)))
                for parsed in map(parse_table, texts):
                    reordered += any(list(parsed.contexts[c]) != list(table.contexts[c])
                                     for c in table.contexts)
                    for e in events:
                        want = predicate_matching_mass(parsed.contexts[e.context], e.requirements)
                        assert _bits([event_probability(parsed, e)]) == _bits([want])
        assert reordered > 0
