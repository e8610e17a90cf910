import dataclasses
import json
import math
import random
from collections.abc import Hashable
from fractions import Fraction

import numpy as np
import pytest

from bosonctx.contextuality import sweep_eta
from bosonctx.experiment import (
    ALL_CONTEXTS,
    COINCIDENCE,
    FIBERS,
    OUTCOMES,
    PAIR_CONTEXTS,
    REFLECTED,
    TRANSMITTED,
    OutcomeTable,
    check_indistinguishability,
    check_no_disturbance,
    check_requirements,
    full_table,
    marginal_probability,
    matching_mass,
    parse_table,
    run_context,
    validate_context,
)
from bosonctx.fock import pure_state
from bosonctx.optics import BALANCED, BeamsplitterSpec, DistinguishabilityParam

from oracles import token_labels

THETA_GRID = np.linspace(0.0, math.pi / 2, 20)
ETA_GRID = np.linspace(0.0, 1.0, 20)

IDEAL = DistinguishabilityParam(1.0)
CLASSICAL = DistinguishabilityParam(0.0)
# 1 + TOL and 1 + 2 * TOL are exact floats, so an edge case lands on the edge
TOL = 2.0 ** -20


def catalogue_keys(ctx: str, eta: float) -> list[str]:
    """The tokens of ``OUTCOMES[ctx]`` in order, less a pair context's resolved
    both-t and both-r tokens at eta = 1."""
    resolved = set()
    if len(ctx) == 2 and eta == 1.0:
        resolved = {token for v in (TRANSMITTED, REFLECTED)
                    for token in check_requirements(ctx, dict.fromkeys(ctx, v))}
    return [token for token in OUTCOMES[ctx] if token not in resolved]


def perturbed(table: OutcomeTable, ctx: str, outcome: str, delta: float) -> OutcomeTable:
    contexts = {c: dict(dist) for c, dist in table.contexts.items()}
    contexts[ctx][outcome] = contexts[ctx][outcome] + delta
    return OutcomeTable(table.theta, table.eta, contexts)


class TestTokens:
    def test_parse_round_trip(self):
        assert OUTCOMES["AB"]["ar,bt"] == {"A": "r", "B": "t"}
        assert OUTCOMES["AB"][COINCIDENCE] == {}

    def test_catalogue_has_the_nineteen_outcomes(self):
        assert list(OUTCOMES) == list(ALL_CONTEXTS)
        assert [len(OUTCOMES[ctx]) for ctx in ALL_CONTEXTS] == [2, 2, 2, 5, 5, 5]
        assert {ctx: list(outcomes) for ctx, outcomes in OUTCOMES.items()} == {
            "A": ["at", "ar"], "B": ["bt", "br"], "C": ["ct", "cr"],
            "AB": ["at,br", "ar,bt", "at,bt", "ar,br", COINCIDENCE],
            "AC": ["at,cr", "ar,ct", "at,ct", "ar,cr", COINCIDENCE],
            "BC": ["bt,cr", "br,ct", "bt,ct", "br,cr", COINCIDENCE]}
        tokens = {token for outcomes in OUTCOMES.values() for token in outcomes}
        assert len(tokens) == 19
        for ctx, outcomes in OUTCOMES.items():
            for token, labels in outcomes.items():
                assert labels == token_labels(token)
                assert set(labels) == (set() if token == COINCIDENCE else set(ctx))

    def test_labels_are_read_only(self):
        with pytest.raises(TypeError):
            OUTCOMES["A"]["at"]["A"] = "r"
        with pytest.raises(TypeError):
            OUTCOMES["AB"]["at,br"] = {}

    def test_malformed_tokens_rejected(self):
        for bad in ("~ab", "a", "ta", "ax", "at,at", "dt",
                    "At", "bt,ar", "at ", "ar,bt,ct"):
            for ctx in ALL_CONTEXTS:
                with pytest.raises(ValueError):
                    OutcomeTable.from_records(0.3, 0.37, [
                        {"context": ctx, "outcome": bad, "probability": 0.0}])

    def test_coincidence_matches_no_requirement(self):
        for ctx in PAIR_CONTEXTS:
            for requirements in ({ctx[0]: "t"}, {ctx[0]: "t", ctx[1]: "t"}):
                assert COINCIDENCE not in check_requirements(ctx, requirements)
        with pytest.raises(ValueError):
            check_requirements("AB", {"A": None})

    def test_matching_is_exact_on_required_fibers(self):
        assert check_requirements("AB", {"A": "r", "B": "t"}) == {"ar,bt"}
        assert check_requirements("AB", {"A": "r"}) == {"ar,bt", "ar,br"}
        assert "ar,bt" not in check_requirements("AB", {"A": "t"})

    def test_requirements_resolve_within_their_context(self):
        assert check_requirements("A", {"A": "t"}) == {"at"}
        assert check_requirements("AB", {"A": "t"}) == {"at,br", "at,bt"}
        assert check_requirements("AC", {"A": "t"}) == {"at,cr", "at,ct"}
        assert check_requirements("AB", {"B": "t", "A": "r"}) == {"ar,bt"}
        for ctx in ALL_CONTEXTS:
            # each outcome's full label set meets that outcome alone
            for token, labels in OUTCOMES[ctx].items():
                if labels:
                    assert check_requirements(ctx, labels) == {token}
            for unmet in ({}, {"A": "x"}, {"D": "t"}, {"A": "t", "B": "t", "C": "t"},
                          {"A": ["t"]}):
                with pytest.raises(ValueError, match="has no outcome meeting"):
                    check_requirements(ctx, unmet)
        with pytest.raises(ValueError, match="unknown context"):
            check_requirements("BA", {"A": "t"})

    def test_matching_mass_sums_in_the_distribution_order(self):
        # three terms, so the order shows in the last bit: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        every = frozenset(OUTCOMES["AB"])
        dist = {"at,bt": 0.1, "ar,bt": 0.2, "at,br": 0.3}
        reordered = {"at,br": 0.3, "ar,bt": 0.2, "at,bt": 0.1}
        assert matching_mass(dist, every) == 0.1 + 0.2 + 0.3 != matching_mass(reordered, every)
        assert matching_mass(reordered, every) == 0.3 + 0.2 + 0.1
        assert matching_mass(dist, check_requirements("AB", {"B": "t"})) == 0.1 + 0.2
        assert matching_mass(dist, frozenset()) == 0

    def test_context_validation(self):
        for ctx in ALL_CONTEXTS:
            assert validate_context(ctx) == ctx
        for bad in ("BA", "ABC", "D", "a", ""):
            with pytest.raises(ValueError):
                validate_context(bad)


class TestRunContext:
    def test_single_fiber_balanced(self):
        dist = run_context("A", BALANCED, IDEAL)
        assert dist["at"] == pytest.approx(0.5, abs=1e-12)
        assert dist["ar"] == pytest.approx(0.5, abs=1e-12)

    def test_identical_pair_balanced(self):
        dist = run_context("AB", BALANCED, IDEAL)
        assert set(dist) == {"at,br", "ar,bt", COINCIDENCE}
        assert dist["at,br"] == pytest.approx(0.5, abs=1e-12)
        assert dist["ar,bt"] == pytest.approx(0.5, abs=1e-12)
        assert dist[COINCIDENCE] == pytest.approx(0.0, abs=1e-12)

    def test_distinguishable_pair_balanced(self):
        dist = run_context("AB", BALANCED, CLASSICAL)
        for token in ("at,br", "ar,bt", "at,bt", "ar,br"):
            assert dist[token] == pytest.approx(0.25, abs=1e-12)
        assert dist[COINCIDENCE] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_context_rejected(self):
        with pytest.raises(ValueError):
            run_context("BA", BALANCED, IDEAL)

    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    def test_keys_follow_the_catalogue(self, eta):
        for ctx in ALL_CONTEXTS:
            dist = run_context(ctx, BeamsplitterSpec(0.7), DistinguishabilityParam(eta))
            assert list(dist) == catalogue_keys(ctx, eta)


class TestFullTable:
    def test_contains_all_six_contexts(self):
        table = full_table(BALANCED, IDEAL)
        assert set(table.contexts) == set(ALL_CONTEXTS)
        table.validate()

    def test_contexts_and_outcomes_follow_the_catalogue_order(self):
        """Serialized tables and event sums read a table in its own order, so
        the contexts come in ``ALL_CONTEXTS`` order and each context's
        outcomes in ``OUTCOMES`` order, the resolved ones absent at eta = 1."""
        rng = random.Random(30)
        thetas = [0.0, math.pi / 4, *(rng.uniform(-4.0, 4.0) for _ in range(6))]
        etas = [0.0, 1.0, *(rng.random() for _ in range(6))]
        for theta in thetas:
            bs = BeamsplitterSpec(theta)
            for eta in etas:
                table = full_table(bs, DistinguishabilityParam(eta))
                assert tuple(table.contexts) == ALL_CONTEXTS
                for ctx, dist in table.contexts.items():
                    assert list(dist) == catalogue_keys(ctx, eta)

    def test_the_dataclass_behaviour_of_a_table(self):
        """Construction stores the three fields as given, positionally or by
        keyword, and checks nothing; the table stays a frozen dataclass."""
        contexts = {"A": {"at": 0.25, "ar": 0.75}}
        table = OutcomeTable(0.3, 0.5, contexts)
        assert table.contexts is contexts and vars(table) == {
            "theta": 0.3, "eta": 0.5, "contexts": contexts}
        assert repr(table) == f"OutcomeTable(theta=0.3, eta=0.5, contexts={contexts!r})"
        assert table == OutcomeTable(theta=0.3, eta=0.5, contexts=dict(contexts))
        assert table != OutcomeTable(0.3, 0.6, contexts)
        assert dataclasses.astuple(table) == (0.3, 0.5, contexts)
        assert dataclasses.replace(table) == table
        assert dataclasses.replace(table, eta=0.6) == OutcomeTable(0.3, 0.6, contexts)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.eta = 0.6
        with pytest.raises(dataclasses.FrozenInstanceError):
            del table.contexts
        with pytest.raises(TypeError):
            OutcomeTable(0.3, 0.5)
        malformed = OutcomeTable("x", None, 7)
        assert (malformed.theta, malformed.eta, malformed.contexts) == ("x", None, 7)

    def test_reference_values_at_balanced_ideal(self):
        table = full_table(BALANCED, IDEAL)
        assert table.contexts["A"]["at"] == pytest.approx(0.5, abs=1e-12)
        assert table.contexts["AB"]["ar,bt"] == pytest.approx(0.5, abs=1e-12)

    def test_fully_transmissive_angle(self):
        table = full_table(BeamsplitterSpec(0.0), IDEAL)
        for f in FIBERS:
            assert table.contexts[f][f.lower() + "t"] == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap_pair_entry(self):
        table = full_table(BALANCED, DistinguishabilityParam(0.5))
        assert table.contexts["AB"]["ar,bt"] == pytest.approx(3 / 8, abs=1e-12)

    def test_every_context_normalized_on_grid(self):
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            for eta in ETA_GRID:
                table = full_table(bs, DistinguishabilityParam(float(eta)))
                for ctx, dist in table.contexts.items():
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_validate_flags_bad_tables(self):
        table = full_table(BALANCED, IDEAL)
        with pytest.raises(ValueError):
            perturbed(table, "AB", "ar,bt", 1e-3).validate()
        missing = OutcomeTable(table.theta, table.eta,
                               {c: d for c, d in table.contexts.items() if c != "BC"})
        with pytest.raises(ValueError):
            missing.validate()
        alien = OutcomeTable(table.theta, table.eta,
                             {**table.contexts, "A": {"at": 0.5, "br": 0.5}})
        with pytest.raises(ValueError):
            alien.validate()
        extra = OutcomeTable(table.theta, table.eta, {**table.contexts, "D": {}})
        with pytest.raises(ValueError):
            extra.validate()

    @pytest.mark.parametrize("p", [1.5, -0.5, math.nan, math.inf, -math.inf])
    def test_probability_outside_the_unit_interval_fails_every_gate(self, p):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        bad = OutcomeTable(table.theta, table.eta, {**table.contexts, "A": {"at": p}})
        for gate in (bad.validate_structure, bad.validate,
                     lambda: check_no_disturbance(bad), lambda: check_indistinguishability(bad)):
            with pytest.raises(ValueError, match="is outside"):
                gate()

    @pytest.mark.parametrize("contexts, match", [
        (None, "^table contexts must be a mapping"),
        (list(ALL_CONTEXTS), "^table contexts must be a mapping"),
        ({"A": "at"}, "^context 'A' must be a mapping"),
        ({"A": [("at", 1.0), ("ar", 0.0)]}, "^context 'A' must be a mapping"),
        ({"A": {"at": "1.0", "ar": 0.0}}, "^probability '1.0' of 'at' in 'A' is not a real"),
        ({"A": {"at": None, "ar": 0.0}}, "^probability None of 'at' in 'A' is not a real"),
        ({"A": {"at": 1 + 0j, "ar": 0.0}}, r"^probability \(1\+0j\) of 'at' in 'A' is not a"),
        ({"A": {"at": True, "ar": False}}, "^probability True of 'at' in 'A' is not a real"),
        ({"A": {"at": 1.0, "ar": False}}, "^probability False of 'ar' in 'A' is not a real"),
        ({"A": {"at": np.bool_(True)}}, " of 'at' in 'A' is not a real number$"),
    ], ids=["contexts-none", "contexts-list", "distribution-str", "distribution-list",
            "probability-str", "probability-none", "probability-complex", "probability-true",
            "probability-false", "probability-numpy-bool"])
    def test_malformed_tables_fail_every_gate(self, contexts, match):
        # at theta = 0, A is exactly {at: 1, ar: 0}: a True and a False there sum to 1,
        # so only the refusal of booleans stops them
        table = full_table(BeamsplitterSpec(0.0), IDEAL)
        if isinstance(contexts, dict):
            contexts = {**table.contexts, **contexts}
        bad = OutcomeTable(table.theta, table.eta, contexts)
        for gate in (bad.validate_structure, bad.validate,
                     lambda: check_no_disturbance(bad), lambda: check_indistinguishability(bad)):
            with pytest.raises(ValueError, match=match):
                gate()

    @pytest.mark.parametrize("kind", [Fraction, np.float64, np.float32],
                             ids=["fraction", "np-float64", "np-float32"])
    def test_real_probabilities_of_other_types_pass_the_gate(self, kind):
        table = full_table(BeamsplitterSpec(0.0), IDEAL)  # every entry 0 or 1, exact in each
        exact = OutcomeTable(table.theta, table.eta,
                             {ctx: {token: kind(int(p)) for token, p in dist.items()}
                              for ctx, dist in table.contexts.items()})
        exact.validate()
        assert check_no_disturbance(exact).passed and check_indistinguishability(exact).passed

    @pytest.mark.parametrize("theta,eta,match", [
        (math.nan, 0.5, "theta must be finite"), (math.inf, 0.5, "theta must be finite"),
        (0.3, 1.5, "eta must lie in"), (0.3, -0.1, "eta must lie in"),
        (0.3, math.nan, "eta must lie in"), ("x", 0.5, "theta must be a number")])
    def test_header_is_checked_by_the_parameter_types(self, theta, eta, match):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        with pytest.raises(ValueError, match=match):
            OutcomeTable(theta, eta, table.contexts).validate_structure()
        bad_probability = {**table.contexts, "A": {"at": 1.5}}
        with pytest.raises(ValueError, match="is outside"):
            OutcomeTable(theta, eta, bad_probability).validate_structure()

    def test_validate_names_the_context_furthest_from_normalized(self):
        table = perturbed(perturbed(full_table(BALANCED, IDEAL), "B", "bt", 1e-6),
                          "AC", "at,cr", -1e-3)
        deviation, ctx = table.normalization_deviation()
        assert ctx == "AC" and deviation == pytest.approx(1e-3, rel=1e-6)
        with pytest.raises(ValueError, match="context 'AC'"):
            table.validate()
        assert full_table(BALANCED, IDEAL).normalization_deviation()[0] <= 1e-15

    def test_range_gate_uses_the_tolerance(self):
        table = full_table(BALANCED, IDEAL)
        nudged = OutcomeTable(table.theta, table.eta, {**table.contexts, "A": {"at": 1 + 1e-6}})
        nudged.validate_structure(tol=1e-3)
        assert check_no_disturbance(nudged, tol=1e-3).identities
        with pytest.raises(ValueError, match="is outside"):
            check_no_disturbance(nudged, tol=1e-9)

    @pytest.mark.parametrize("outcome,steps,match", [
        ("at", 1, None), ("at", 2, "is outside"), ("ar", 1, None), ("ar", 2, "miss a sum of 1")])
    def test_gates_decide_exactly_at_the_tolerance(self, outcome, steps, match):
        # at theta = 0, A is exactly {at: 1, ar: 0}: at lands on 1 + steps*TOL, ar on steps*TOL
        table = perturbed(full_table(BeamsplitterSpec(0.0), IDEAL), "A", outcome, steps * TOL)
        if match is None:
            table.validate(TOL)
        else:
            with pytest.raises(ValueError, match=match):
                table.validate(TOL)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a valid table, so no probability may take the blame for the tolerance
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        for check in (table.validate_structure, table.validate,
                      lambda tol: check_no_disturbance(table, tol),
                      lambda tol: check_indistinguishability(table, tol)):
            with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
                check(tol)

    @pytest.mark.parametrize("tol", ["x", None, True, 1j, [0.5], b"x",
                                     pytest.param(10**400, id="10**400")])
    def test_tolerance_is_read_as_a_table_number(self, tol):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        for check in (table.validate_structure, table.validate,
                      lambda tol: check_no_disturbance(table, tol),
                      lambda tol: check_indistinguishability(table, tol)):
            with pytest.raises(ValueError, match="^tolerance must be a number that fits"):
                check(tol)

    def test_numeric_tolerance_text_is_read_like_a_table_number(self):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        assert table.validate_structure("1e-3") == 1e-3
        table.validate("1e-3")
        for check in (check_no_disturbance, check_indistinguishability):
            report = check(table, "1e-3")
            assert report.tolerance == 1e-3 and type(report.tolerance) is float
            assert report == check(table, 1e-3)


@pytest.mark.parametrize("make", [lambda: full_table(BALANCED, IDEAL),
                                  lambda: sweep_eta("triangle", BALANCED, steps=3),
                                  lambda: pure_state({(1, 0): 1.0})],
                         ids=["OutcomeTable", "SweepResult", "PureState"])
def test_a_frozen_value_holding_dicts_says_it_is_unhashable(make):
    """Each holds dicts, so it is not ``Hashable`` and ``hash`` names its class;
    equality, ``repr`` and ``replace`` work as for any dataclass."""
    value = make()
    name = type(value).__name__
    assert not isinstance(value, Hashable)
    with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
        hash(value)
    assert value == make() == dataclasses.replace(value)
    assert repr(value) == repr(make()) and repr(value).startswith(f"{name}(")


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        table = full_table(BeamsplitterSpec(0.9), DistinguishabilityParam(0.37))
        loaded = parse_table(table.to_json())
        assert loaded.theta == table.theta
        assert loaded.eta == table.eta
        assert loaded.contexts == table.contexts

    def test_csv_round_trip_is_exact(self):
        table = full_table(BeamsplitterSpec(0.9), DistinguishabilityParam(0.37))
        loaded = parse_table(table.to_csv())
        assert loaded.theta == table.theta
        assert loaded.contexts == table.contexts

    def test_serialization_is_deterministic(self):
        a = full_table(BALANCED, IDEAL)
        b = full_table(BALANCED, IDEAL)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_record_shape(self):
        table = full_table(BALANCED, IDEAL)
        rec = table.to_records()[0]
        assert set(rec) == {"context", "outcome", "probability"}

    def test_garbage_rejected(self):
        for garbage in ("", "not a table", '{"theta": 1}', "a,b\n1,2\n", "[" * 100_000):
            with pytest.raises(ValueError):
                parse_table(garbage)

    @pytest.mark.parametrize("field", ["theta", "eta", "probability"])
    @pytest.mark.parametrize("value", [True, 10 ** 400], ids=["bool", "huge_int"])
    def test_numbers_must_be_floats(self, field, value):
        payload = json.loads(full_table(BALANCED, IDEAL).to_json())
        (payload["records"][0] if field == "probability" else payload)[field] = value
        with pytest.raises(ValueError, match=field):
            parse_table(json.dumps(payload))

    def test_tokens_outside_the_catalogue_rejected(self):
        table = full_table(BALANCED, DistinguishabilityParam(0.37))
        bad = [(ctx, COINCIDENCE) for ctx in FIBERS]
        for ctx in PAIR_CONTEXTS:
            for token in list(OUTCOMES[ctx])[:4]:
                first, second = token.split(",")
                bad += [(ctx, f"{second},{first}"), (ctx, token.upper()),
                        (ctx, f"{first}, {second}"), (ctx, first), (ctx, f"{token},")]
        for ctx, token in bad:
            records = table.to_records() + [
                {"context": ctx, "outcome": token, "probability": 0.0}]
            with pytest.raises(ValueError, match="has no outcome"):
                OutcomeTable.from_records(table.theta, table.eta, records)

    def test_both_formats_share_the_header_rule(self):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        as_json, as_csv = table.to_json(), table.to_csv()
        for text in (as_json.replace('"schema": 1', '"schema": "1"'),
                     as_json.replace('  "schema": 1,\n', ""),
                     as_csv.replace("# schema=1\n", "")):
            assert parse_table(text) == table
        for text, match in ((as_csv.replace("# schema=1", "# schema=2"), "unsupported schema"),
                            (as_json.replace('"schema": 1', '"schema": 2'), "unsupported schema"),
                            (as_csv.replace("# schema=1", "# schema=x"), "schema must be"),
                            (as_json.replace('"schema": 1', '"schema": true'), "schema must be"),
                            (as_csv.replace("# eta=", "# beta="), "needs theta and eta"),
                            (as_json.replace('"eta"', '"beta"'), "needs theta and eta")):
            with pytest.raises(ValueError, match=match):
                parse_table(text)

    def test_both_formats_refuse_a_record_with_extra_fields(self):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(0.37))
        lines = table.to_csv().splitlines()
        row = lines.index("context,outcome,probability") + 1
        payload = json.loads(table.to_json())
        first, rest = payload["records"][0], payload["records"][1:]
        bad_rows = [lines[row] + ",junk", lines[row] + ",,"]
        # an extra key, a missing key and three non-mappings
        bad_records = [{**first, "counts": 7}, {"context": "A", "outcome": "at"},
                       list(first.values()), "A", None]
        texts = (["\n".join(lines[:row] + [r] + lines[row + 1:]) for r in bad_rows]
                 + [json.dumps({**payload, "records": [r] + rest}) for r in bad_records])
        for text in texts:
            with pytest.raises(ValueError, match="^bad table record "):
                parse_table(text)
        # a short CSV row keeps its refusal: the reader fills the missing value with None
        short = lines[row].rpartition(",")[0]
        with pytest.raises(ValueError, match="^probability must be a number"):
            parse_table("\n".join(lines[:row] + [short] + lines[row + 1:]))

    @pytest.mark.parametrize("text", [None, b"{}", bytearray(b"{}"), 1j, [0.5], 3])
    def test_only_text_is_parsed(self, text):
        with pytest.raises(ValueError, match="^table text must be a str, got "):
            parse_table(text)

    def test_duplicate_records_rejected(self):
        table = full_table(BALANCED, IDEAL)
        records = table.to_records() + [
            {"context": "A", "outcome": "at", "probability": 0.5}]
        with pytest.raises(ValueError):
            OutcomeTable.from_records(table.theta, table.eta, records)


class TestMarginals:
    def test_single_fiber_marginals_are_context_free_at_balanced(self):
        for eta in ETA_GRID:
            table = full_table(BALANCED, DistinguishabilityParam(float(eta)))
            for fiber in FIBERS:
                for value in (TRANSMITTED, REFLECTED):
                    single = table.contexts[fiber][fiber.lower() + value]
                    for ctx in PAIR_CONTEXTS:
                        if fiber in ctx:
                            m = marginal_probability(table, ctx, fiber, value)
                            assert m == pytest.approx(single, abs=1e-12)

    def test_classical_marginals_are_context_free_at_any_angle(self):
        for theta in THETA_GRID:
            table = full_table(BeamsplitterSpec(float(theta)), CLASSICAL)
            for fiber in FIBERS:
                single = table.contexts[fiber][fiber.lower() + "t"]
                for ctx in PAIR_CONTEXTS:
                    if fiber in ctx:
                        m = marginal_probability(table, ctx, fiber, "t")
                        assert m == pytest.approx(single, abs=1e-12)

    def test_fiber_must_belong_to_context(self):
        table = full_table(BALANCED, IDEAL)
        with pytest.raises(ValueError):
            marginal_probability(table, "AB", "C", "t")

    @pytest.mark.parametrize("eta", [0.37, 1.0])
    @pytest.mark.parametrize("ctx", ["A", "AB"])
    def test_value_must_be_t_or_r(self, ctx, eta):
        table = full_table(BeamsplitterSpec(0.3), DistinguishabilityParam(eta))
        with pytest.raises(ValueError, match="has no outcome meeting"):
            marginal_probability(table, ctx, "A", "x")


class TestNoDisturbance:
    def test_passes_at_balanced_ideal_with_all_identities_checked(self):
        report = check_no_disturbance(full_table(BALANCED, IDEAL))
        assert report.passed
        assert report.max_deviation <= 1e-12
        assert all(i.checked for i in report.identities)

    def test_passes_over_parameter_grid(self):
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            for eta in ETA_GRID:
                report = check_no_disturbance(full_table(bs, DistinguishabilityParam(float(eta))))
                assert report.passed, (theta, eta, report.max_deviation)

    def test_balanced_tables_check_single_context_identities_for_all_eta(self):
        for eta in ETA_GRID:
            report = check_no_disturbance(full_table(BALANCED, DistinguishabilityParam(float(eta))))
            assert report.passed
            assert all(i.checked for i in report.identities)

    def test_detects_injected_perturbation(self):
        table = perturbed(full_table(BALANCED, IDEAL), "AB", "ar,bt", 1e-3)
        report = check_no_disturbance(table)
        assert not report.passed
        assert report.max_deviation == pytest.approx(1e-3, rel=0.1)
        assert any("A=r" in i.name for i in report.failures())

    @pytest.mark.parametrize("steps,checked", [(1, True), (2, False)])
    def test_single_context_identities_are_checked_up_to_the_tolerance(self, steps, checked):
        table = full_table(BeamsplitterSpec(0.6), CLASSICAL)
        assert table.contexts["AB"][COINCIDENCE] == 0.0
        report = check_no_disturbance(perturbed(table, "AB", COINCIDENCE, steps * TOL), TOL)
        from_ab = [i.checked for i in report.identities if "AB vs single" in i.name]
        assert from_ab == [checked] * 4

    def test_incomplete_table_rejected(self):
        table = full_table(BALANCED, IDEAL)
        partial = OutcomeTable(table.theta, table.eta,
                               {c: d for c, d in table.contexts.items() if c != "AC"})
        with pytest.raises(ValueError):
            check_no_disturbance(partial)


class TestIndistinguishability:
    def test_passes_at_balanced_ideal(self):
        report = check_indistinguishability(full_table(BALANCED, IDEAL))
        assert report.passed
        assert report.max_deviation <= 1e-12

    def test_passes_at_generic_parameters(self):
        report = check_indistinguishability(
            full_table(BeamsplitterSpec(math.pi / 3), DistinguishabilityParam(0.7)))
        assert report.passed

    def test_passes_over_parameter_grid(self):
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            for eta in ETA_GRID:
                report = check_indistinguishability(
                    full_table(bs, DistinguishabilityParam(float(eta))))
                assert report.passed, (theta, eta, report.max_deviation)

    def test_detects_partner_asymmetry(self):
        table = full_table(BALANCED, IDEAL)
        contexts = {c: dict(d) for c, d in table.contexts.items()}
        contexts["AB"]["at,br"] = 0.5
        contexts["AC"]["at,cr"] = 0.4
        report = check_indistinguishability(OutcomeTable(table.theta, table.eta, contexts))
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.1, rel=1e-9)
        assert any("A=t, partner=r" in i.name for i in report.failures())

    def test_incomplete_table_rejected(self):
        table = full_table(BALANCED, IDEAL)
        partial = OutcomeTable(table.theta, table.eta,
                               {c: d for c, d in table.contexts.items() if c != "B"})
        with pytest.raises(ValueError):
            check_indistinguishability(partial)
