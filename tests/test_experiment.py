import json
import math

import numpy as np
import pytest

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
    full_table,
    make_outcome,
    marginal_probability,
    outcome_assigns,
    outcome_matches,
    parse_table,
    run_context,
    validate_context,
)
from bosonctx.optics import BALANCED, BeamsplitterSpec, DistinguishabilityParam

THETA_GRID = np.linspace(0.0, math.pi / 2, 20)
ETA_GRID = np.linspace(0.0, 1.0, 20)

IDEAL = DistinguishabilityParam(1.0)
CLASSICAL = DistinguishabilityParam(0.0)


def perturbed(table: OutcomeTable, ctx: str, outcome: str, delta: float) -> OutcomeTable:
    contexts = {c: dict(dist) for c, dist in table.contexts.items()}
    contexts[ctx][outcome] = contexts[ctx][outcome] + delta
    return OutcomeTable(table.theta, table.eta, contexts)


class TestTokens:
    def test_make_outcome_sorts_fibers_into_port_order(self):
        assert make_outcome({"B": "t", "A": "r"}) == "ar,bt"
        assert make_outcome({"C": "r"}) == "cr"

    def test_parse_round_trip(self):
        assert outcome_assigns("ar,bt") == {"A": "r", "B": "t"}
        assert outcome_assigns("coinc") == {}
        for outcomes in OUTCOMES.values():
            for token in outcomes:
                if token != COINCIDENCE:
                    assert make_outcome(outcome_assigns(token)) == token

    def test_catalogue_has_the_nineteen_outcomes(self):
        assert list(OUTCOMES) == list(ALL_CONTEXTS)
        assert [len(OUTCOMES[ctx]) for ctx in ALL_CONTEXTS] == [2, 2, 2, 5, 5, 5]
        assert list(OUTCOMES["B"]) == ["bt", "br"]
        assert list(OUTCOMES["AC"]) == ["at,cr", "ar,ct", "at,ct", "ar,cr", COINCIDENCE]
        tokens = {token for outcomes in OUTCOMES.values() for token in outcomes}
        assert len(tokens) == 19
        for ctx, outcomes in OUTCOMES.items():
            for token, labels in outcomes.items():
                assert labels == outcome_assigns(token)
                assert set(labels) == (set() if token == COINCIDENCE else set(ctx))

    def test_labels_are_read_only(self):
        with pytest.raises(TypeError):
            outcome_assigns("at")["A"] = "r"
        with pytest.raises(TypeError):
            OUTCOMES["AB"]["at,br"] = {}

    def test_malformed_tokens_rejected(self):
        for bad in ("~ab", "a", "ta", "ax", "at,at", "dt",
                    "At", "bt,ar", "at ", "ar,bt,ct"):
            with pytest.raises(ValueError):
                outcome_assigns(bad)

    def test_coincidence_matches_no_requirement(self):
        assert not outcome_matches(COINCIDENCE, {"A": "t"})
        assert not outcome_matches(COINCIDENCE, {"A": "t", "B": "t"})
        assert not outcome_matches(COINCIDENCE, {"A": None})

    def test_matching_is_exact_on_required_fibers(self):
        assert outcome_matches("ar,bt", {"A": "r", "B": "t"})
        assert outcome_matches("ar,bt", {"A": "r"})
        assert not outcome_matches("ar,bt", {"A": "t"})

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
            resolved = set()
            if len(ctx) == 2 and eta == 1.0:
                resolved = {make_outcome(dict.fromkeys(ctx, v)) for v in (TRANSMITTED, REFLECTED)}
            expected = [token for token in OUTCOMES[ctx] if token not in resolved]
            dist = run_context(ctx, BeamsplitterSpec(0.7), DistinguishabilityParam(eta))
            assert list(dist) == expected


class TestFullTable:
    def test_contains_all_six_contexts(self):
        table = full_table(BALANCED, IDEAL)
        assert set(table.contexts) == set(ALL_CONTEXTS)
        table.validate()

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

    @pytest.mark.parametrize("theta,eta,match", [
        (math.nan, 0.5, "theta must be finite"), (math.inf, 0.5, "theta must be finite"),
        (0.3, 1.5, "eta must lie in"), (0.3, -0.1, "eta must lie in"),
        (0.3, math.nan, "eta must lie in")])
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
