import dataclasses
import gc
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonctx import optics
from bosonctx.contextuality import sweep_eta
from bosonctx.experiment import (check_indistinguishability, check_no_disturbance, full_table,
                                 run_context)
from bosonctx.fock import basis_state, fock_basis, make_fock, pure_state
from bosonctx.optics import (
    BALANCED,
    BeamsplitterSpec,
    DistinguishabilityParam,
    apply_interferometer,
    beamsplitter_unitary,
    pair_outcome_distribution,
    permanent,
    scattering_amplitude,
    single_outcome_distribution,
)

from oracles import (
    naive_permanent,
    numpy_ryser_permanent,
    single_photon_closed_form,
    state_norm,
    two_photon_closed_form,
)

THETA_GRID = np.linspace(0.0, math.pi / 2, 20)
ETA_GRID = np.linspace(0.0, 1.0, 20)

# Each is not a non-empty square matrix of numbers: ragged, 1-D, 2x3, 0x0,
# empty, a scalar, a non-numeric string entry, a numeric string entry, a
# list of strings, a None entry in a 1x1 and in a 2x2 matrix (numpy read it
# as NaN), a 3-D array and an integer beyond the float range.
MALFORMED = [
    [[1, 2], [3]],
    [1, 2],
    np.ones((2, 3)),
    np.zeros((0, 0)),
    [],
    3.0,
    [[1, "x"], [2, 3]],
    [["1"]],
    ["12", "34"],
    [[None]],
    [[1, 2], [None, 4]],
    np.ones((2, 2, 2)),
    [[10**400]],
]


class CountingRows(tuple):
    """A tuple of rows that counts how often its rows are iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class TestBeamsplitterSpec:
    def test_balanced_is_fifty_fifty(self):
        assert BALANCED.transmittance == pytest.approx(0.5, abs=1e-15)
        assert BALANCED.reflectance == pytest.approx(0.5, abs=1e-15)

    def test_transmittance_reflectance_sum_to_one(self):
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            assert bs.transmittance + bs.reflectance == pytest.approx(1.0, abs=1e-15)

    def test_transmittance_and_reflectance_are_cached_bit_for_bit(self):
        for theta in (*map(float, THETA_GRID), -0.3, 2.9, 1e6):
            bs = BeamsplitterSpec(theta)
            for _ in range(2):  # set by the constructor, the same on every read
                assert bs.transmittance.hex() == (math.cos(theta) ** 2).hex()
                assert bs.reflectance.hex() == (math.sin(theta) ** 2).hex()
            fresh = BeamsplitterSpec(theta)
            assert bs == fresh and hash(bs) == hash(fresh)
            assert repr(bs) == f"BeamsplitterSpec(theta={theta!r})"
            moved = dataclasses.replace(bs, theta=theta + 0.5)
            assert moved != bs
            assert moved.transmittance.hex() == (math.cos(theta + 0.5) ** 2).hex()
            assert moved.reflectance.hex() == (math.sin(theta + 0.5) ** 2).hex()
            assert dataclasses.replace(bs) == bs
        with pytest.raises(dataclasses.FrozenInstanceError):
            bs.transmittance = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            bs.theta = 0.5

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            BeamsplitterSpec(math.nan)

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            DistinguishabilityParam(-0.1)
        with pytest.raises(ValueError):
            DistinguishabilityParam(1.1)


class TestBeamsplitterUnitary:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(beamsplitter_unitary(BeamsplitterSpec(0.0)),
                                   np.eye(2), atol=1e-15)

    def test_right_angle_is_full_reflection(self):
        u = beamsplitter_unitary(BeamsplitterSpec(math.pi / 2))
        np.testing.assert_allclose(u, [[0, 1j], [1j, 0]], atol=1e-15)

    def test_balanced_entries_have_equal_magnitude(self):
        u = beamsplitter_unitary(BALANCED)
        np.testing.assert_allclose(np.abs(u), np.full((2, 2), 1 / math.sqrt(2)),
                                   atol=1e-15)

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=25):
            u = beamsplitter_unitary(BeamsplitterSpec(float(theta)))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


class TestPermanent:
    def test_one_by_one(self):
        assert permanent([[3.5 - 2j]]) == pytest.approx(3.5 - 2j)

    def test_identity(self):
        assert permanent(np.eye(3)) == pytest.approx(1.0)

    def test_matches_permutation_expansion(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        expected = naive_permanent(m)
        assert abs(permanent(m) - expected) <= 1e-10 * abs(expected)

    def test_all_ones_gives_factorial(self):
        assert permanent(np.ones((4, 4))) == pytest.approx(math.factorial(4))

    def test_non_square_rejected(self):
        for bad in MALFORMED:
            with pytest.raises(ValueError):
                permanent(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0),
                                     complex(0, math.inf)],
                             ids=["nan", "inf", "-inf", "nan-real", "inf-imag"])
    def test_a_non_finite_entry_is_refused(self, bad):
        with pytest.raises(ValueError, match="^permanent entry must be a finite number"):
            permanent([[1, 2], [bad, 4]])

    def test_a_non_square_tuple_of_rows_is_refused(self):
        row = optics._Row((1j, 2j))
        for bad in ((row,), (row, row, row), (row, optics._Row((3j,)))):
            with pytest.raises(ValueError, match="^permanent must be a non-empty square matrix"):
                permanent(bad)
        assert permanent((row, optics._Row((3j, 4j)))) == -10

    def test_bit_identical_to_numpy_ryser(self):
        rng = np.random.default_rng(17)
        for n in range(1, 11):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert permanent(m) == numpy_ryser_permanent(m)

    def test_input_forms_agree(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        forms = [m, m.tolist(), tuple(map(tuple, m.tolist()))]
        results = [permanent(form) for form in forms]
        assert all(type(r) is complex for r in results)
        assert results[0] == results[1] == results[2]
        assert type(permanent([[1, 2], [3, 4]])) is complex


class TestScatteringAmplitude:
    def test_hom_coincidence_vanishes_when_balanced(self):
        u = beamsplitter_unitary(BALANCED)
        amp = scattering_amplitude(u, make_fock([1, 1]), make_fock([1, 1]))
        assert abs(amp) <= 1e-14

    def test_balanced_bunching_amplitude(self):
        u = beamsplitter_unitary(BALANCED)
        amp = scattering_amplitude(u, make_fock([1, 1]), make_fock([2, 0]))
        assert abs(amp) == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_identity_scattering(self):
        for occ in ([1, 0], [1, 1], [2, 1]):
            amp = scattering_amplitude(np.eye(2), make_fock(occ), make_fock(occ))
            assert amp == pytest.approx(1.0, abs=1e-14)

    def test_photon_number_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scattering_amplitude(np.eye(2), make_fock([1, 1]), make_fock([1, 0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scattering_amplitude(np.eye(3), make_fock([1, 1]), make_fock([1, 1]))

    def test_malformed_unitary_rejected(self):
        for bad in MALFORMED:
            with pytest.raises(ValueError):
                scattering_amplitude(bad, make_fock([1, 1]), make_fock([2, 0]))

    def test_states_may_be_occupation_sequences(self):
        u = beamsplitter_unitary(BeamsplitterSpec(0.7))
        want = scattering_amplitude(u, make_fock([1, 0]), make_fock([0, 1]))
        for state_in, state_out in (([1, 0], [0, 1]), ((1, 0), make_fock([0, 1])),
                                    (make_fock([1, 0]), np.array([0, 1]))):
            assert _hex(scattering_amplitude(u, state_in, state_out)) == _hex(want)

    @pytest.mark.parametrize("bad", [None, 3, "10", [], [1.5, 0], [-1, 1], [True, 0],
                                     basis_state([1, 0])])
    def test_junk_states_are_value_errors(self, bad):
        u = beamsplitter_unitary(BALANCED)
        with pytest.raises(ValueError):
            scattering_amplitude(u, bad, [0, 1])
        with pytest.raises(ValueError):
            scattering_amplitude(u, [1, 0], bad)

    def test_input_forms_agree(self):
        u = beamsplitter_unitary(BeamsplitterSpec(0.7))
        forms = [u, u.tolist(), tuple(map(tuple, u.tolist()))]
        for occ in ([2, 0], [1, 1], [0, 2]):
            amps = [scattering_amplitude(f, make_fock([1, 1]), make_fock(occ))
                    for f in forms]
            assert all(type(a) is complex for a in amps)
            assert amps[0] == amps[1] == amps[2]

    def test_matches_creation_operator_expansion_on_grid(self):
        for theta in THETA_GRID:
            u = beamsplitter_unitary(BeamsplitterSpec(float(theta)))
            expected = two_photon_closed_form(float(theta))
            for occ, amp in expected.items():
                got = scattering_amplitude(u, make_fock([1, 1]), make_fock(occ))
                assert got == pytest.approx(amp, abs=1e-12)
            for occ, amp in single_photon_closed_form(float(theta)).items():
                got = scattering_amplitude(u, make_fock([1, 0]), make_fock(occ))
                assert got == pytest.approx(amp, abs=1e-12)

    def test_unitarity_for_small_photon_numbers(self):
        rng = np.random.default_rng(9)
        inputs = [f for n in (1, 2, 3) for f in fock_basis(n, 2)]
        for theta in rng.uniform(0, math.pi, size=50):
            u = beamsplitter_unitary(BeamsplitterSpec(float(theta)))
            for state_in in inputs:
                total = sum(abs(scattering_amplitude(u, state_in, out)) ** 2
                            for out in fock_basis(state_in.total, 2))
                assert total == pytest.approx(1.0, abs=1e-12)


class TestApplyInterferometer:
    def test_hom_output_state(self):
        out = apply_interferometer(basis_state([1, 1]), beamsplitter_unitary(BALANCED))
        assert out.amplitude([2, 0]) == pytest.approx(1j / math.sqrt(2), abs=1e-12)
        assert out.amplitude([0, 2]) == pytest.approx(1j / math.sqrt(2), abs=1e-12)
        assert abs(out.amplitude([1, 1])) <= 1e-14

    def test_single_photon_splits_evenly(self):
        out = apply_interferometer(basis_state([1, 0]), beamsplitter_unitary(BALANCED))
        assert out.amplitude([1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out.amplitude([0, 1]) == pytest.approx(1j / math.sqrt(2), abs=1e-12)

    def test_identity_preserves_state(self):
        st = pure_state({(2, 0): 0.6, (1, 1): 0.8j})
        out = apply_interferometer(st, np.eye(2))
        assert out.amplitude([2, 0]) == pytest.approx(0.6)
        assert out.amplitude([1, 1]) == pytest.approx(0.8j)

    def test_norm_preserved_for_random_states(self):
        rng = np.random.default_rng(13)
        basis = fock_basis(2, 2) + fock_basis(3, 2)
        for theta in rng.uniform(0, math.pi, size=10):
            u = beamsplitter_unitary(BeamsplitterSpec(float(theta)))
            amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            st = pure_state(dict(zip(basis, amps)))
            out = apply_interferometer(st, u)
            assert state_norm(out) == pytest.approx(state_norm(st), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_interferometer(basis_state([1, 0]), np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)],
                             ids=["nan", "inf", "inf-imag"])
    def test_a_non_finite_unitary_entry_is_refused(self, bad):
        with pytest.raises(ValueError, match="^unitary entry must be a finite number"):
            apply_interferometer(basis_state([1, 0]), [[1, 0], [0, bad]])

    def test_malformed_unitary_rejected(self):
        for bad in MALFORMED:
            with pytest.raises(ValueError):
                apply_interferometer(basis_state([1, 1]), bad)

    @pytest.mark.parametrize("bad", [{(1, 0): 1}, make_fock([1, 0]), [1, 0], None, "|1,0>"],
                             ids=["mapping", "fock", "sequence", "none", "text"])
    def test_a_state_that_is_not_a_pure_state_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="^state must be a PureState"):
            apply_interferometer(bad, beamsplitter_unitary(BALANCED))

    def test_superposition_over_two_totals_is_the_sum_of_its_terms(self):
        u = beamsplitter_unitary(BeamsplitterSpec(0.4)) @ np.diag([1, 1j])
        terms = {(2, 0): 0.5, (1, 1): 0.5j, (1, 0): -0.5, (0, 1): 0.5}
        out = apply_interferometer(pure_state(terms), u)
        expected: dict = {}
        for occ, amp in terms.items():
            part = apply_interferometer(basis_state(list(occ)), u)
            for fock, a in part.terms.items():
                expected[fock.occupations] = expected.get(fock.occupations, 0j) + amp * a
        assert {f.occupations for f in out.terms} == \
            {occ for occ, a in expected.items() if abs(a) > 1e-12}
        for occ, a in expected.items():
            assert out.amplitude(list(occ)) == pytest.approx(a, abs=1e-14)

    def test_an_amplitude_that_overflows_is_refused(self):
        """The pass checks the amplitudes it forms as ``pure_state`` checks a caller's."""
        with pytest.raises(ValueError, match="^amplitude must be a finite number"):
            apply_interferometer(basis_state([3, 0]), [[1e200, 0], [0, 1]])

    def test_terms_up_to_the_prune_threshold_are_dropped(self):
        u = [[0.3, 0.7], [0.7, 0.3]]
        out = apply_interferometer(pure_state({(1, 0): 2e-15}), u)
        assert list(out.terms) == [make_fock([0, 1])]
        assert out.amplitude([0, 1]) == pytest.approx(1.4e-15, rel=1e-12)
        dropped = 2e-15 * scattering_amplitude(u, [1, 0], [1, 0])
        assert dropped == pytest.approx(6e-16, rel=1e-12)

    def test_set_up_happens_once_per_call(self, monkeypatch):
        calls = []
        real_fock_basis = optics.fock_basis
        monkeypatch.setattr(optics, "fock_basis",
                            lambda total, modes: calls.append(total) or
                            real_fock_basis(total, modes))
        u = CountingRows(map(tuple, beamsplitter_unitary(BALANCED).tolist()))
        terms = {(2, 0): 0.5, (1, 1): 0.5, (1, 0): 0.5, (0, 1): 0.5}
        apply_interferometer(pure_state(terms), u)
        assert sorted(calls) == [1, 2]
        assert u.reads == 1
        calls.clear()
        apply_interferometer(basis_state([2, 1]), u)
        assert calls == [3]


class TestSingleOutcomeDistribution:
    def test_balanced(self):
        p_transmitted, p_reflected = single_outcome_distribution(BALANCED)
        assert p_transmitted == pytest.approx(0.5, abs=1e-15)
        assert p_reflected == pytest.approx(0.5, abs=1e-15)

    def test_fully_transmissive(self):
        assert single_outcome_distribution(BeamsplitterSpec(0.0)) == (1.0, 0.0)

    def test_sixty_degree_splitter(self):
        p_transmitted, p_reflected = single_outcome_distribution(BeamsplitterSpec(math.pi / 3))
        assert p_transmitted == pytest.approx(0.25, abs=1e-15)
        assert p_reflected == pytest.approx(0.75, abs=1e-15)


def _pair(bs: BeamsplitterSpec, eta: float):
    """(bunch at port 1, bunch at port 2, coincidence, resolved) for one photon
    in each port: port 1, the coincidence and the resolved pair from
    ``pair_outcome_distribution``, port 2 from ``run_context("AB", ...)``.  The
    coincidence counts one photon per output port, resolved or not:
    ``coinc`` plus both t and both r."""
    d = DistinguishabilityParam(eta)
    p_bunch, p_unresolved, resolved = pair_outcome_distribution(bs, d)
    return p_bunch, run_context("AB", bs, d)["ar,bt"], p_unresolved + sum(resolved or ()), resolved


class TestPairOutcomeDistribution:
    def test_identical_photons_bunch_at_balanced_splitter(self):
        port1, port2, coincidence, resolved = _pair(BALANCED, 1.0)
        assert port1 == pytest.approx(0.5, abs=1e-12)
        assert port2 == pytest.approx(0.5, abs=1e-12)
        assert coincidence == pytest.approx(0.0, abs=1e-12)
        assert resolved is None

    def test_distinguishable_photons_are_independent_coins(self):
        port1, port2, coincidence, resolved = _pair(BALANCED, 0.0)
        assert port1 == pytest.approx(0.25, abs=1e-12)
        assert port2 == pytest.approx(0.25, abs=1e-12)
        assert coincidence == pytest.approx(0.5, abs=1e-12)
        both_t, both_r = resolved
        assert both_t == pytest.approx(0.25, abs=1e-12)
        assert both_r == pytest.approx(0.25, abs=1e-12)

    def test_half_overlap(self):
        port1, port2, coincidence, _ = _pair(BALANCED, 0.5)
        assert port1 == pytest.approx(3 / 8, abs=1e-12)
        assert port2 == pytest.approx(3 / 8, abs=1e-12)
        assert coincidence == pytest.approx(1 / 4, abs=1e-12)

    def test_coincidence_dip_formula_on_grid(self):
        # mixture model identity: p_coinc = T^2 + R^2 - 2 eta T R
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            T, R = bs.transmittance, bs.reflectance
            for eta in ETA_GRID:
                _, _, coincidence, _ = _pair(bs, float(eta))
                assert coincidence == pytest.approx(T * T + R * R - 2 * eta * T * R, abs=1e-12)

    def test_probabilities_sum_to_one_on_grid(self):
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            for eta in ETA_GRID:
                port1, port2, coincidence, _ = _pair(bs, float(eta))
                assert port1 + port2 + coincidence == pytest.approx(1.0, abs=1e-12)
                for p in (port1, port2, coincidence):
                    assert -1e-12 <= p <= 1 + 1e-12

    def test_resolved_coincidence_present_only_below_full_overlap(self):
        bs = BeamsplitterSpec(0.3)
        assert pair_outcome_distribution(bs, DistinguishabilityParam(1.0))[2] is None
        both_t, both_r = pair_outcome_distribution(bs, DistinguishabilityParam(0.7))[2]
        T, R = bs.transmittance, bs.reflectance
        assert both_t + both_r == pytest.approx(0.3 * (T * T + R * R), abs=1e-12)

    def test_port_swap_symmetry(self):
        # identical photons make the two bunch ports interchangeable; the
        # permanent route agrees outcome by outcome
        u = beamsplitter_unitary(BeamsplitterSpec(0.9))
        amp1 = scattering_amplitude(u, make_fock([1, 1]), make_fock([2, 0]))
        amp2 = scattering_amplitude(u, make_fock([1, 1]), make_fock([0, 2]))
        assert abs(amp1) == pytest.approx(abs(amp2), abs=1e-14)
        ab = run_context("AB", BeamsplitterSpec(0.9), DistinguishabilityParam(1.0))
        assert ab["at,br"].hex() == ab["ar,bt"].hex()
        assert ab["at,br"] == pytest.approx(abs(amp1) ** 2, abs=1e-12)


def _hexes(result):
    """A pair-rule result written out bit for bit: floats as ``float.hex``."""
    p_bunch, p_unresolved, resolved = result
    return (p_bunch.hex(), p_unresolved.hex(),
            None if resolved is None else tuple(p.hex() for p in resolved))


def _fresh(theta: float, eta: float):
    """The pair rule on a new splitter and a new overlap."""
    return _hexes(pair_outcome_distribution(BeamsplitterSpec(theta),
                                            DistinguishabilityParam(eta)))


class TestStatelessPairRule:
    """A splitter is complete once built: the pair rule reads it and writes
    nothing, so every result equals a fresh evaluation bit for bit."""

    def test_interleaved_splitters_and_overlaps_match_fresh_evaluations(self):
        # one overlap across two splitters, then one splitter across two overlaps
        a, b = BeamsplitterSpec(0.4), BeamsplitterSpec(1.1)
        d1, d2, ideal = (DistinguishabilityParam(e) for e in (0.3, 0.7, 1.0))
        for bs, d in ((a, d1), (b, d1), (a, d2), (a, d1), (b, ideal), (b, d2), (a, ideal)):
            assert _hexes(pair_outcome_distribution(bs, d)) == _fresh(bs.theta, d.eta)

    def test_a_reassigned_duck_typed_overlap_gets_the_new_numbers(self):
        bs, overlap = BeamsplitterSpec(0.4), SimpleNamespace(eta=0.25)
        assert _hexes(pair_outcome_distribution(bs, overlap)) == _fresh(0.4, 0.25)
        for eta in (0.75, 1.0, float("0.75")):  # the last: an equal value in another object
            overlap.eta = eta
            assert _hexes(pair_outcome_distribution(bs, overlap)) == _fresh(0.4, eta)

    def test_an_eta_changed_in_place_gets_the_new_numbers(self):
        """A 0-d array is one object whatever it holds; the rule reads its value."""
        bs, overlap = BeamsplitterSpec(0.4), SimpleNamespace(eta=np.array(0.25))
        assert _hexes(pair_outcome_distribution(bs, overlap)) == _fresh(0.4, 0.25)
        overlap.eta[...] = 0.75
        assert _hexes(pair_outcome_distribution(bs, overlap)) == _fresh(0.4, 0.75)

    def test_a_duck_typed_splitter_gets_the_numbers_of_its_beamsplitter_spec(self):
        for theta in (0.0, 0.4, math.pi / 4, 1.1):
            spec = BeamsplitterSpec(theta)
            splitter = SimpleNamespace(transmittance=spec.transmittance,
                                       reflectance=spec.reflectance, theta=theta)
            held = dict(vars(splitter))
            for eta in (0.0, 0.3, 1.0):
                d = DistinguishabilityParam(eta)
                assert (_hexes(pair_outcome_distribution(splitter, d))
                        == _hexes(pair_outcome_distribution(spec, d)) == _fresh(theta, eta))
            assert vars(splitter) == held  # it is not written to

    def test_nothing_writes_into_a_splitter_after_construction(self):
        """The pair rule, a table, a sweep and both checkers leave a splitter's
        attributes as its constructor set them."""
        bs = BeamsplitterSpec(0.4)
        built = dict(vars(bs))
        assert built.keys() == {"theta", "transmittance", "reflectance"}
        pair_outcome_distribution(bs, DistinguishabilityParam(0.3))
        table = full_table(bs, DistinguishabilityParam(0.3))
        sweep_eta("pentagon", bs, steps=5)
        check_no_disturbance(table)
        check_indistinguishability(table)
        assert vars(bs) == built

    @pytest.mark.parametrize("kind, value, other", [(BeamsplitterSpec, 0.4, 1.1),
                                                    (DistinguishabilityParam, 0.3, 0.7)],
                             ids=["splitter", "overlap"])
    def test_the_dataclass_behaviour_of_both_parameter_types(self, kind, value, other):
        (name,) = (f.name for f in dataclasses.fields(kind))
        spec = kind(value)
        pair_outcome_distribution(*((spec, DistinguishabilityParam(0.5))
                                    if kind is BeamsplitterSpec else (BALANCED, spec)))
        assert repr(spec) == f"{kind.__name__}({name}={value!r})"
        assert spec == kind(value) == kind(**{name: value}) != kind(other)
        assert hash(spec) == hash(kind(value)) == hash((value,))
        assert dataclasses.astuple(spec) == (value,)
        assert dataclasses.replace(spec) == spec
        assert dataclasses.replace(spec, **{name: other}) == kind(other)
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            dataclasses.replace(spec, **{name: "x"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, other)


def _inline_gray_steps(n: int) -> list[int]:
    """The walk as the permanent once computed it inline, from ``k ^ (k >> 1)``
    and the bit that changed: for each step, the index into a row's
    ``row + tuple(map(neg, row))`` of the entry it adds, j for a step that adds
    column j and n + j for one that subtracts it."""
    steps, gray = [], 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        steps.append(changed.bit_length() - 1 + (0 if new_gray & changed else n))
        gray = new_gray
    return steps


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@st.composite
def scattering_submatrices(draw) -> list[list]:
    """A matrix of at most 6 x 6 built like ``scattering_amplitude`` builds
    its submatrix: the columns of an input occupation and the rows of an
    output occupation of one drawn mode matrix, each repeated by its count.
    Entries are all complex or all int."""
    modes = draw(st.integers(1, 4))
    if draw(st.booleans()):
        part = st.floats(-2.0, 2.0, allow_subnormal=False)
        entry = st.builds(complex, part, part)
    else:
        entry = st.integers(-3, 3)
    u = draw(st.lists(st.lists(entry, min_size=modes, max_size=modes),
                      min_size=modes, max_size=modes))
    total = draw(st.integers(1, 6))
    # each photon's mode, sorted: mode i repeated as often as it is occupied
    photons = st.lists(st.integers(0, modes - 1), min_size=total, max_size=total).map(sorted)
    cols = draw(photons)
    return [[u[i][c] for c in cols] for i in draw(photons)]


class TestGraySchedule:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_schedule_is_the_inline_recurrence_from_shared_steps(self, n):
        getters = optics._walk_getters(n)
        assert type(getters) is tuple
        positions = tuple(range(2 * n))
        blocks = [getter(positions) for getter in getters]
        assert [i for block in blocks for i in block] == _inline_gray_steps(n)
        assert all(len(block) == optics._WALK_BLOCK for block in blocks[:-1])
        # equal blocks share one getter, and distinct blocks never do
        assert len({id(getter) for getter in getters}) == len(set(blocks))
        assert optics._walk_getters(n) is getters

    def test_sizes_in_mixed_order_stay_bit_identical(self):
        rng = np.random.default_rng(29)
        for n in (6, 3, 6, 1, 10, 6):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            got = permanent(m)
            assert type(got) is complex
            assert _hex(got) == _hex(numpy_ryser_permanent(m))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scattering_submatrices())
    def test_drawn_submatrices_match_both_oracles(self, m):
        got = permanent(m)
        assert _hex(got) == _hex(numpy_ryser_permanent(m))
        # relative to the largest term the walk can form, which bounds its rounding
        scale = math.prod(sum(abs(x) for x in row) for row in m)
        assert abs(got - naive_permanent(m)) <= 1e-9 * scale

    @staticmethod
    def _fresh_run(code: str) -> str:
        """The stdout of ``code`` run in a fresh interpreter that imports this checkout."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=60, check=True)
        return result.stdout

    def test_import_builds_no_schedule(self):
        code = ("import bosonctx\n"
                "from bosonctx import optics\n"
                "print(optics._walk_getters.cache_info().currsize)")
        assert self._fresh_run(code) == "0\n"

    def test_a_size_builds_its_getters_in_little_memory(self):
        # 262 143 steps of n = 18 are cut into blocks as they go, never listed whole
        code = ("import tracemalloc\n"
                "from bosonctx import optics\n"
                "tracemalloc.start()\n"
                "optics._walk_getters(18)\n"
                "print(tracemalloc.get_traced_memory()[1])")
        assert int(self._fresh_run(code)) < 500_000

    def test_a_size_leaves_little_cached(self):
        # 65 535 steps of n = 16 fit in a few shared blocks, not one pointer per step
        code = ("import tracemalloc\n"
                "from bosonctx import optics\n"
                "tracemalloc.start()\n"
                "optics._walk_getters(16)\n"
                "print(tracemalloc.get_traced_memory()[0])")
        assert int(self._fresh_run(code)) < 200_000


@st.composite
def shared_row_submatrices(draw) -> tuple[optics._Row, ...]:
    """A submatrix of at most 6 x 6 as ``scattering_amplitude`` builds it: the
    columns of an input occupation, and each occupied output mode's row as one
    ``_Row``, repeated by its count, in a tuple that ``permanent`` takes as it
    is.  Entries mix ints and complexes whose parts are often 0.0 or -0.0."""
    modes = draw(st.integers(1, 4))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_subnormal=False))
    entry = st.one_of(st.integers(-3, 3), st.builds(complex, part, part))
    u = draw(st.lists(st.lists(entry, min_size=modes, max_size=modes),
                      min_size=modes, max_size=modes))
    total = draw(st.integers(1, 6))
    photons = st.lists(st.integers(0, modes - 1), min_size=total, max_size=total).map(sorted)
    cols = draw(photons)
    outputs = draw(photons)
    rows = {i: optics._Row(u[i][c] for c in cols) for i in outputs}
    return tuple(rows[i] for i in outputs)


class TestRowWalk:
    """``permanent`` walks each distinct row object once, in blocks, and keeps
    every bit of the step-by-step walk of ``numpy_ryser_permanent``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shared_row_submatrices())
    def test_shared_rows_match_the_step_walk(self, rows):
        assert _hex(permanent(rows)) == _hex(numpy_ryser_permanent(rows))

    @pytest.mark.parametrize("n", [11, 12])
    def test_walks_of_several_blocks_match_the_step_walk(self, n):
        assert len(optics._walk_getters(n)) > 1
        rng = np.random.default_rng(n)
        distinct = optics._square_rows(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                                       "matrix")
        shared = tuple(distinct[i // 3] for i in range(n))
        for rows in (distinct, shared):
            assert _hex(permanent(rows)) == _hex(numpy_ryser_permanent(rows))

    def test_scattering_amplitude_passes_each_output_row_as_one_object(self, monkeypatch):
        seen = []
        monkeypatch.setattr(optics, "permanent", lambda rows: seen.append(rows) or 1j)
        u = [[complex(4 * i + j, -j) for j in range(4)] for i in range(4)]
        scattering_amplitude(u, make_fock([1, 2, 0, 3]), make_fock([2, 0, 3, 1]))
        (rows,) = seen
        assert type(rows) is optics._Matrix and all(type(row) is optics._Row for row in rows)
        modes, cols = (0, 0, 2, 2, 2, 3), (0, 1, 1, 3, 3, 3)
        assert rows == tuple(tuple(u[i][c] for c in cols) for i in modes)
        first = {i: rows[modes.index(i)] for i in modes}
        assert all(row is first[i] for row, i in zip(rows, modes))
        assert len({id(row) for row in rows}) == 3

    def test_checked_rows_pass_through_on_their_type(self):
        matrix = optics._square_rows([[1, 2j], [3, 4]], "matrix")
        assert type(matrix) is optics._Matrix
        assert optics._square_rows(matrix, "matrix") is matrix
        cut = (matrix[1], matrix[1])  # a caller's own cut of checked rows
        assert optics._square_rows(cut, "matrix") is cut
        assert type(optics._square_rows(list(cut), "matrix")) is optics._Matrix

    def test_walk_holds_blocks_not_the_whole_walk(self):
        rng = np.random.default_rng(14)
        m = (rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))).tolist()
        permanent(m)  # builds the size's schedule and getters, which outlive the call
        tracemalloc.start()
        try:
            permanent(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _unitary(seed: int, n: int) -> tuple[tuple[complex, ...], ...]:
    """A seeded Haar-like n x n unitary as tuple rows of Python complex."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return tuple(map(tuple, (q * (np.diag(r) / abs(np.diag(r)))).tolist()))


def _reference_amplitude(u, state_in, state_out) -> complex:
    """``scattering_amplitude`` as it computed each amplitude before the
    per-input-state set-up was shared: its own columns, each occupied output
    mode's row built once and repeated, and the weight from 1.0 over the input
    then the output factorials."""
    cols = [i for i, n in enumerate(state_in.occupations) for _ in range(n)]
    if not cols:
        return 1 + 0j
    sub = tuple(row for i, m in enumerate(state_out.occupations) if m
                for row in [optics._Row(u[i][c] for c in cols)] * m)
    weight = 1.0
    for n in state_in.occupations + state_out.occupations:
        weight *= math.factorial(n)
    return permanent(sub) / math.sqrt(weight)


@st.composite
def interferometer_cases(draw):
    """A unitary-shaped matrix of 1 to 5 modes and a superposition of 2 or 3
    terms over at least 2 photon totals of 0 to 6 (the vacuum among them).
    Entries are often ints, and complex parts are often 0.0 or -0.0."""
    modes = draw(st.integers(1, 5))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_subnormal=False))
    entry = st.one_of(st.integers(-3, 3), st.builds(complex, part, part))
    u = draw(st.lists(st.lists(entry, min_size=modes, max_size=modes),
                      min_size=modes, max_size=modes))
    totals = draw(st.lists(st.integers(0, 6), min_size=2, max_size=3)
                  .filter(lambda t: len(set(t)) > 1))
    amp = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    terms = {}
    for total in totals:
        photons = draw(st.lists(st.integers(0, modes - 1), min_size=total, max_size=total))
        terms[tuple(photons.count(i) for i in range(modes))] = draw(amp)
    return u, pure_state(terms, modes=modes)


class TestAmplitudePass:
    """``apply_interferometer`` sets up each input state once for all of its
    outputs and keeps every bit of one ``scattering_amplitude`` per output."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interferometer_cases())
    def test_terms_are_the_per_output_amplitudes_bit_for_bit(self, case):
        u, state = case
        expected: dict = {}
        for fock, amp in state.terms.items():
            for out in fock_basis(fock.total, state.modes):
                a = _reference_amplitude(u, fock, out)
                assert _hex(scattering_amplitude(u, fock, out)) == _hex(a)
                a = amp * a
                if a != 0j:
                    expected[out] = expected.get(out, 0j) + a
        expected = pure_state(expected, modes=state.modes).terms
        got = apply_interferometer(state, u).terms
        assert [(f, _hex(a)) for f, a in got.items()] == \
            [(f, _hex(a)) for f, a in expected.items()]

    def test_outputs_of_one_input_share_its_mode_rows(self, monkeypatch):
        seen = []
        real_permanent = optics.permanent
        monkeypatch.setattr(optics, "permanent",
                            lambda rows: seen.append(rows) or real_permanent(rows))
        u = _unitary(41, 5)
        apply_interferometer(basis_state([2, 1, 1, 1, 1]), u)
        assert len(seen) == 210
        assert all(len(rows) == 6 for rows in seen)
        assert len({id(row) for rows in seen for row in rows}) <= 5

    @pytest.mark.parametrize("seed, occupations", [(3, (2, 1, 1, 1, 1)),
                                                   (5, (6, 0, 0, 0, 0)),
                                                   (7, (0, 3, 0, 1, 2))],
                             ids=["21111", "60000", "03012"])
    def test_six_photon_amplitudes_match_the_naive_permanent(self, seed, occupations):
        u = _unitary(seed, 5)
        state = basis_state(occupations)
        out = apply_interferometer(state, u)
        cols = [i for i, n in enumerate(occupations) for _ in range(n)]
        for fock in fock_basis(6, 5):
            sub = [[u[i][c] for c in cols] for i, m in enumerate(fock.occupations)
                   for _ in range(m)]
            weight = math.prod(map(math.factorial, occupations + fock.occupations))
            want = naive_permanent(sub) / math.sqrt(weight)
            assert abs(out.amplitude(fock) - want) <= 1e-12
        assert state_norm(out) == pytest.approx(state_norm(state), abs=1e-12)


class TestSharedWalk:
    """The submatrices of one input state share its mode row objects, each of
    which carries its ``walk``, so ``permanent`` forms each mode row's running
    sums once for all outputs."""

    def test_one_input_state_walks_each_mode_row_once(self, monkeypatch):
        walks = []
        real_accumulate = optics.accumulate
        monkeypatch.setattr(optics, "accumulate",
                            lambda *args, **kwargs: walks.append(args) or
                            real_accumulate(*args, **kwargs))
        out = apply_interferometer(basis_state([2, 1, 1, 1, 1]), _unitary(41, 5))
        assert len(walks) == 5  # one per mode row, against one per row of each of 210 outputs
        assert len(out.terms) == 210

    @pytest.mark.parametrize("n", [11, 12])
    def test_alternating_rows_that_share_walks_match_the_step_walk(self, n):
        assert len(optics._walk_getters(n)) > 1
        rng = np.random.default_rng(100 + n)
        distinct = optics._square_rows(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                                       "matrix")
        shared = tuple(distinct[i // 3] for i in range(n))
        for _ in range(2):
            for rows in (distinct, shared):
                assert _hex(permanent(rows)) == _hex(numpy_ryser_permanent(rows))
        last = len(optics._walk_getters(n)) - 1
        assert [row.walk[0] for row in distinct] == [last] * n

    def test_repeated_passes_leave_nothing_that_grows(self):
        u, state = _unitary(43, 5), basis_state([2, 1, 1, 1, 1])
        apply_interferometer(state, u)  # builds the size's getters, which outlive the call
        tracemalloc.start()
        try:
            apply_interferometer(state, u)
            gc.collect()  # also empties the free lists, which fill up to a fixed size
            first = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                apply_interferometer(state, u)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - first
        finally:
            tracemalloc.stop()
        assert grown < 4_000  # one pass's walks alone hold about 13 kB


class CountingMul:
    """``operator`` for ``optics``, whose ``mul`` counts the products formed."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name: str):
        return getattr(operator, name)

    def mul(self, a, b):
        self.calls += 1
        return a * b


@st.composite
def call_sequences(draw) -> list[tuple[optics._Row, ...]]:
    """Submatrices of one size n <= 11 cut from a few shared ``_Row`` objects,
    in no lexicographic order: the first row drawn from at most two, the others
    in any order and repeated, so ``permanent`` reuses its chain, cuts it
    short or drops it, over walks of one block or, for n >= 10, several.
    Entries mix ints and complexes whose parts are often 0.0 or -0.0."""
    n = draw(st.integers(1, 11))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_subnormal=False))
    entry = st.one_of(st.integers(-3, 3), st.builds(complex, part, part))
    pool = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(optics._Row),
                         min_size=1, max_size=4))
    index = st.integers(0, len(pool) - 1)
    firsts = draw(st.lists(index, min_size=1, max_size=2))
    calls = draw(st.lists(st.tuples(st.sampled_from(firsts),
                                    st.lists(index, min_size=n - 1, max_size=n - 1)),
                          min_size=2, max_size=6))
    return [tuple(pool[i] for i in (first, *rest)) for first, rest in calls]


class TestSharedProducts:
    """The first row of a submatrix keeps the products of its last call, so
    the outputs of one input state form each shared leading run's products
    once and every bit of the step-by-step walk stays."""

    def test_one_input_state_forms_each_leading_run_once(self, monkeypatch):
        counter = CountingMul()
        monkeypatch.setattr(optics, "operator", counter)
        out = apply_interferometer(basis_state([2, 1, 1, 1, 1]), _unitary(41, 5))
        # each of the 461 multisets of 1 to 6 of the 5 mode rows, once, against 210 x 6 runs
        runs = sum(math.comb(k + 4, 4) for k in range(1, 7))
        assert runs == 461
        assert counter.calls == runs * 63  # 63 steps of 6 columns; 79 380 without the chain
        assert len(out.terms) == 210

    def test_rows_are_matched_by_identity_not_by_value(self, monkeypatch):
        rows = optics._square_rows(_unitary(53, 3), "matrix")
        twin = optics._Row(rows[1])
        want = permanent(rows)
        permanent((twin,) * 3)  # twin now carries sums equal, bit for bit, to those of rows[1]
        counter = CountingMul()
        monkeypatch.setattr(optics, "operator", counter)
        assert _hex(permanent(rows)) == _hex(want)
        assert counter.calls == 7  # the same rows again: only the last row's products
        assert _hex(permanent((rows[0], twin, rows[2]))) == _hex(want)
        # an equal row that is another object: one check per row, never a pass over its sums
        assert counter.calls == 7 + 2 * 7

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(call_sequences())
    def test_any_order_of_calls_matches_the_step_walk(self, calls):
        for rows in calls:
            assert _hex(permanent(rows)) == _hex(numpy_ryser_permanent(rows))

    def test_only_a_walk_of_one_block_keeps_its_chain(self):
        """Each call walks from block 0, so no call reads the chain of a walk of
        several blocks, and a one-off 12 x 12 keeps none."""
        rng = np.random.default_rng(12)
        for n, blocks in ((9, 1), (12, 8)):
            rows = optics._square_rows(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                                       "matrix")
            assert len(optics._walk_getters(n)) == blocks
            permanent(rows)
            held, sums, products = rows[0].chain
            assert (held, len(sums), len(products)) == ((0, n - 1, n - 1) if blocks == 1
                                                        else (-1, 0, 0))
        assert rows[0].chain == optics._Row.chain

    def test_a_pass_leaves_no_row_to_the_collector(self):
        # a chain that held rows would make a cycle whenever a row repeats, as in (r0, r0, ...)
        u, state = _unitary(47, 5), basis_state([2, 1, 1, 1, 1])
        gc.collect()
        before = sum(type(o) is optics._Row for o in gc.get_objects())
        gc.disable()
        try:
            apply_interferometer(state, u)
            left = sum(type(o) is optics._Row for o in gc.get_objects())
        finally:
            gc.enable()
        assert left == before


class TestParameterInputs:
    """Both parameter types read their value by ``fock.real_number``."""

    @pytest.mark.parametrize("bad", ["x", None, 1j, [0.5], True,
                                     pytest.param(10**400, id="10**400"),
                                     pytest.param(np.complex128(0.5 + 0.3j), id="np-complex"),
                                     pytest.param(np.complex128(0.5), id="np-complex-real")])
    def test_non_numbers_are_value_errors(self, bad):
        """A numpy complex is refused, not read as its real part with a warning."""
        with pytest.raises(ValueError, match="^theta must be a number that fits a float"):
            BeamsplitterSpec(bad)
        with pytest.raises(ValueError, match="^eta must be a number that fits a float"):
            DistinguishabilityParam(bad)

    @pytest.mark.parametrize("good", [0, 1, 0.5, pytest.param("0.5", id="text"),
                                      Fraction(1, 3), np.float64(0.25),
                                      pytest.param(b"0.5", id="bytes"),
                                      pytest.param(-0.0, id="-0.0")])
    def test_accepted_values_are_stored_as_given(self, good):
        """"As given" means as the number rule reads it: a plain float.  A zero
        overlap is stored as 0.0, so no table or report shows an eta of -0.0."""
        for spec, field in ((BeamsplitterSpec(good), "theta"),
                            (DistinguishabilityParam(good), "eta")):
            stored = getattr(spec, field)
            assert type(stored) is float and stored == float(good)
        assert math.copysign(1.0, DistinguishabilityParam(good).eta) == 1.0
