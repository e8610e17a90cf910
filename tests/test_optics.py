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
        (m,) = _normal_matrices(5, [5])
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

    def test_input_forms_agree(self):
        (m,) = _normal_matrices(21, [5])
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


def _assert_step_walk(calls: list) -> None:
    """Each ``permanent`` call, in order, is a complex with every bit of ``numpy_ryser_permanent``
    and, up to 6 x 6, within rounding of ``naive_permanent``; afterwards each row of a
    ``_Matrix`` holds the last block of its size's walk."""
    for matrix in calls:
        got = permanent(matrix)
        assert type(got) is complex and _hex(got) == _hex(numpy_ryser_permanent(matrix))
        if len(matrix) <= 6:  # relative to the largest term the walk can form
            scale = math.prod(sum(abs(x) for x in row) for row in matrix)
            assert abs(got - naive_permanent(matrix)) <= 1e-9 * scale
    shared = [matrix for matrix in calls if type(matrix) is optics._Matrix]
    assert all(row.walk[0] == len(optics._walk_getters(len(m))) - 1 for m in shared for row in m)


def _normal_matrices(seed: int, sizes) -> list[np.ndarray]:
    """Fresh complex Gaussian n x n arrays, one per size, from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in sizes]


def _distinct_then_shared(seed: int, n: int, rounds: int) -> list[optics._Matrix]:
    """A checked n x n matrix, then its rows three to a row (0, 0, 0, 1, ...), ``rounds`` times."""
    assert len(optics._walk_getters(n)) > 1
    distinct = optics._square_rows(_normal_matrices(seed, [n])[0], "matrix")
    return [distinct, optics._Matrix(distinct[i // 3] for i in range(n))] * rounds


CALL_SEQUENCES = {  # id: the calls in order, built afresh for each run
    "fresh-1-to-10": lambda: _normal_matrices(17, range(1, 11)),
    "mixed-sizes": lambda: _normal_matrices(29, (6, 3, 6, 1, 10, 6)),
    "blocks-11": lambda: _distinct_then_shared(11, 11, 1),
    "blocks-12": lambda: _distinct_then_shared(12, 12, 1),
    "alternating-11": lambda: _distinct_then_shared(111, 11, 2),
    "alternating-12": lambda: _distinct_then_shared(112, 12, 2),
}


ALL_FORMS = (optics._Matrix, list, np.array)


@st.composite
def permanent_calls(draw, most_calls: int = 6, largest: int = 11, forms=ALL_FORMS) -> list:
    """One to ``most_calls`` ``permanent`` calls over sizes 1 to ``largest``, in any order, so
    walks of one block and, from n = 10, of several.  Each size's rows are cut from one to
    four mode rows with the columns of one occupation, as in a scattering submatrix.  A call
    picks n of them, repeated and often sorted as ``_amplitudes`` passes them, in one of
    ``forms``: a list of lists, an ndarray or a ``_Matrix`` of the size's shared ``_Row``s,
    so it reuses, cuts short or drops what an earlier call left.  Entries mix ints and
    complexes with parts often 0.0 or -0.0."""
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_subnormal=False))
    entry = st.one_of(st.integers(-3, 3), st.builds(complex, part, part))
    modes = draw(st.integers(1, 4))
    pools: dict[int, tuple] = {}  # size: its rows as drawn, and as shared checked _Rows
    calls = []
    for _ in range(draw(st.integers(1, most_calls))):
        n = draw(st.integers(1, largest))
        if n not in pools:
            cols = sorted(draw(st.lists(st.integers(0, modes - 1), min_size=n, max_size=n)))
            u = draw(st.lists(st.lists(entry, min_size=modes, max_size=modes),
                              min_size=1, max_size=4))
            raw = [[row[c] for c in cols] for row in u]
            pools[n] = raw, [optics._Row(map(complex, row)) for row in raw]
        raw, shared = pools[n]
        pick = st.lists(st.integers(0, len(raw) - 1), min_size=n, max_size=n)
        picks = draw(pick | pick.map(sorted))
        form = draw(st.sampled_from(forms))
        calls.append(optics._Matrix(shared[i] for i in picks) if form is optics._Matrix
                     else form([raw[i] for i in picks]))
    return calls


class TestStepWalk:
    """Each call keeps every bit of the step-by-step walk, whatever earlier calls left on rows.
    The drawn calls are checked the same way by three properties over ``permanent_calls``:
    ``TestGraySchedule`` (one fresh matrix), ``TestRowWalk`` (one ``_Matrix`` of shared rows)
    and ``TestSharedProducts`` (sequences in any order)."""

    @pytest.mark.parametrize("calls", CALL_SEQUENCES.values(), ids=CALL_SEQUENCES.keys())
    def test_named_call_sequences_match_the_step_walk(self, calls):
        _assert_step_walk(calls())


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

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(permanent_calls(most_calls=1, largest=6, forms=(list, np.array)))
    def test_drawn_submatrices_match_both_oracles(self, calls):
        _assert_step_walk(calls)

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


class TestRowWalk:
    """``permanent`` walks each distinct row object of a ``_Matrix`` once, in
    blocks; every other input is read into fresh rows."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(permanent_calls(most_calls=1, largest=6, forms=(optics._Matrix,)))
    def test_shared_rows_match_the_step_walk(self, calls):
        _assert_step_walk(calls)

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
        for other in (cut, list(cut)):  # is read into fresh rows, a plain tuple too
            checked = optics._square_rows(other, "matrix")
            assert type(checked) is optics._Matrix and checked[0] is not cut[0]

    def test_walk_holds_blocks_not_the_whole_walk(self):
        m = _normal_matrices(14, [14])[0].tolist()
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
    q, r = np.linalg.qr(*_normal_matrices(seed, [n]))
    return tuple(map(tuple, (q * (np.diag(r) / abs(np.diag(r)))).tolist()))


def _reference_amplitude(u, state_in, state_out) -> complex:
    """``scattering_amplitude`` as it computed each amplitude before the
    per-input-state set-up was shared: its own columns, each occupied output
    mode's row built once and repeated, and the weight from 1.0 over the input
    then the output factorials."""
    cols = [i for i, n in enumerate(state_in.occupations) for _ in range(n)]
    if not cols:
        return 1 + 0j
    sub = optics._Matrix(row for i, m in enumerate(state_out.occupations) if m
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


class TestSharedProducts:
    """The first row of a submatrix keeps the products of its last call, so
    the outputs of one input state form each shared leading run's products
    once, and every bit of the step-by-step walk stays."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(permanent_calls())
    def test_any_order_of_calls_matches_the_step_walk(self, calls):
        _assert_step_walk(calls)

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
        # twin now carries sums equal, bit for bit, to those of rows[1]
        permanent(optics._Matrix((twin,) * 3))
        counter = CountingMul()
        monkeypatch.setattr(optics, "operator", counter)
        assert _hex(permanent(rows)) == _hex(want)
        assert counter.calls == 7  # the same rows again: only the last row's products
        assert _hex(permanent(optics._Matrix((rows[0], twin, rows[2])))) == _hex(want)
        # an equal row that is another object: one check per row, never a pass over its sums
        assert counter.calls == 7 + 2 * 7

    def test_only_a_walk_of_one_block_keeps_its_chain(self):
        """Each call walks from block 0, so no call reads the chain of a walk of
        several blocks, and a one-off 12 x 12 keeps none."""
        for m, blocks in zip(_normal_matrices(12, (9, 12)), (1, 8)):
            rows = optics._square_rows(m, "matrix")
            n = len(rows)
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
