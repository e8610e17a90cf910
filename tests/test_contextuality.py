import math
import random
from itertools import combinations

import pytest

from bosonctx.contextuality import (
    PENTAGON,
    TRIANGLE,
    EventSpec,
    ExclusivityGraph,
    cycle_graph,
    derive_exclusivity,
    event_probability,
    events_exclusive,
    fractional_packing_max,
    independence_number,
    inequality_sum,
    lovasz_theta_odd_cycle,
    noncontextual_max,
    standard_events,
    sweep_eta,
)
from bosonctx.experiment import OutcomeTable, full_table
from bosonctx.optics import BALANCED, BeamsplitterSpec, DistinguishabilityParam

from oracles import (
    all_assignments,
    assignment_noncontextual_max,
    assignment_satisfies,
    graph_has_edge,
    grid_packing_max,
    subset_independence_number,
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


class TestNoncontextualMax:
    def test_pentagon_bound(self):
        assert noncontextual_max(standard_events(PENTAGON)) == 2

    def test_triangle_bound(self):
        assert noncontextual_max(standard_events(TRIANGLE)) == 1

    def test_single_event(self):
        assert noncontextual_max(standard_events(PENTAGON)[:1]) == 1

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

    def test_vertex_limit(self):
        big = ExclusivityGraph(tuple(f"v{i}" for i in range(25)), frozenset())
        with pytest.raises(ValueError):
            independence_number(big)

    def test_cycle_graph_needs_an_integer_of_at_least_three(self):
        for bad in (2, 0, -5, 4.5, float("inf"), float("-inf"), float("nan"), "5", None):
            with pytest.raises(ValueError):
                cycle_graph(bad)
        assert cycle_graph(4.0) == cycle_graph(4)


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
        with pytest.raises(ValueError):
            sweep_eta(PENTAGON, BALANCED, steps=1)
        for eta in (-0.1, math.nan):
            with pytest.raises(ValueError, match="eta must lie in"):
                sweep_eta(PENTAGON, BALANCED, etas=[eta, 0.5])
        for steps in (2.5, math.inf, math.nan, None, "5"):
            with pytest.raises(ValueError, match="whole number"):
                sweep_eta(PENTAGON, BALANCED, steps=steps)
        assert sweep_eta(PENTAGON, BALANCED, steps=5.0) == sweep_eta(PENTAGON, BALANCED, steps=5)

    def test_exact_grid_hit_is_reported_exactly(self):
        result = sweep_eta(PENTAGON, BALANCED, etas=[0.0, 0.5, 1.0])
        # 3/2 + 1/2 = 2 exactly in binary floating point
        assert result.crossings["noncontextual"] == 0.5
