import dataclasses
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonctx import optics
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
            for _ in range(2):  # computed, then read back from the cache
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

    def test_malformed_unitary_rejected(self):
        for bad in MALFORMED:
            with pytest.raises(ValueError):
                apply_interferometer(basis_state([1, 1]), bad)

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
        dist = single_outcome_distribution(BALANCED)
        assert dist.p_transmitted == pytest.approx(0.5, abs=1e-15)
        assert dist.p_reflected == pytest.approx(0.5, abs=1e-15)

    def test_fully_transmissive(self):
        dist = single_outcome_distribution(BeamsplitterSpec(0.0))
        assert (dist.p_transmitted, dist.p_reflected) == (1.0, 0.0)

    def test_sixty_degree_splitter(self):
        dist = single_outcome_distribution(BeamsplitterSpec(math.pi / 3))
        assert dist.p_transmitted == pytest.approx(0.25, abs=1e-15)
        assert dist.p_reflected == pytest.approx(0.75, abs=1e-15)


class TestPairOutcomeDistribution:
    def test_identical_photons_bunch_at_balanced_splitter(self):
        dist = pair_outcome_distribution(BALANCED, DistinguishabilityParam(1.0))
        assert dist.p_bunch_port1 == pytest.approx(0.5, abs=1e-12)
        assert dist.p_bunch_port2 == pytest.approx(0.5, abs=1e-12)
        assert dist.p_coincidence == pytest.approx(0.0, abs=1e-12)
        assert dist.resolved_coincidence is None

    def test_distinguishable_photons_are_independent_coins(self):
        dist = pair_outcome_distribution(BALANCED, DistinguishabilityParam(0.0))
        assert dist.p_bunch_port1 == pytest.approx(0.25, abs=1e-12)
        assert dist.p_bunch_port2 == pytest.approx(0.25, abs=1e-12)
        assert dist.p_coincidence == pytest.approx(0.5, abs=1e-12)
        both_t, both_r = dist.resolved_coincidence
        assert both_t == pytest.approx(0.25, abs=1e-12)
        assert both_r == pytest.approx(0.25, abs=1e-12)

    def test_half_overlap(self):
        dist = pair_outcome_distribution(BALANCED, DistinguishabilityParam(0.5))
        assert dist.p_bunch_port1 == pytest.approx(3 / 8, abs=1e-12)
        assert dist.p_bunch_port2 == pytest.approx(3 / 8, abs=1e-12)
        assert dist.p_coincidence == pytest.approx(1 / 4, abs=1e-12)

    def test_coincidence_dip_formula_on_grid(self):
        # mixture model identity: p_coinc = T^2 + R^2 - 2 eta T R
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            T, R = bs.transmittance, bs.reflectance
            for eta in ETA_GRID:
                dist = pair_outcome_distribution(bs, DistinguishabilityParam(float(eta)))
                assert dist.p_coincidence == pytest.approx(
                    T * T + R * R - 2 * eta * T * R, abs=1e-12)

    def test_probabilities_sum_to_one_on_grid(self):
        for theta in THETA_GRID:
            bs = BeamsplitterSpec(float(theta))
            for eta in ETA_GRID:
                dist = pair_outcome_distribution(bs, DistinguishabilityParam(float(eta)))
                total = dist.p_bunch_port1 + dist.p_bunch_port2 + dist.p_coincidence
                assert total == pytest.approx(1.0, abs=1e-12)
                for p in (dist.p_bunch_port1, dist.p_bunch_port2, dist.p_coincidence):
                    assert -1e-12 <= p <= 1 + 1e-12

    def test_resolved_coincidence_present_only_below_full_overlap(self):
        bs = BeamsplitterSpec(0.3)
        assert pair_outcome_distribution(bs, DistinguishabilityParam(1.0)).resolved_coincidence is None
        dist = pair_outcome_distribution(bs, DistinguishabilityParam(0.7))
        both_t, both_r = dist.resolved_coincidence
        T, R = bs.transmittance, bs.reflectance
        assert both_t + both_r == pytest.approx(0.3 * (T * T + R * R), abs=1e-12)

    def test_port_swap_symmetry(self):
        # identical photons make the two bunch ports interchangeable; the
        # permanent route agrees outcome by outcome
        u = beamsplitter_unitary(BeamsplitterSpec(0.9))
        amp1 = scattering_amplitude(u, make_fock([1, 1]), make_fock([2, 0]))
        amp2 = scattering_amplitude(u, make_fock([1, 1]), make_fock([0, 2]))
        assert abs(amp1) == pytest.approx(abs(amp2), abs=1e-14)
        dist = pair_outcome_distribution(BeamsplitterSpec(0.9), DistinguishabilityParam(1.0))
        assert dist.p_bunch_port1 == dist.p_bunch_port2
        assert dist.p_bunch_port1 == pytest.approx(abs(amp1) ** 2, abs=1e-12)


def _inline_gray_steps(n: int) -> list[tuple[int, object, bool]]:
    """The walk as the permanent computed it inline: ``k ^ (k >> 1)``, the
    changed bit, the add/sub test and the parity of the new subset."""
    steps, gray = [], 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        steps.append((changed.bit_length() - 1,
                      operator.add if new_gray & changed else operator.sub,
                      bool(new_gray.bit_count() & 1)))
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
        schedule = optics._gray_schedule(n)
        assert type(schedule) is tuple
        assert list(schedule) == _inline_gray_steps(n)
        assert len({id(step) for step in schedule}) <= 4 * n
        assert optics._gray_schedule(n) is schedule

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

    def test_import_builds_no_schedule(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        code = ("import bosonctx\n"
                "from bosonctx import optics\n"
                "print(optics._gray_schedule.cache_info().currsize)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=60, check=True)
        assert result.stdout == "0\n"


class TestParameterInputs:
    """Both parameter types read their value by ``fock.real_number``."""

    @pytest.mark.parametrize("bad", ["x", None, 1j, [0.5], True,
                                     pytest.param(10**400, id="10**400")])
    def test_non_numbers_are_value_errors(self, bad):
        with pytest.raises(ValueError, match="^theta must be a number that fits a float"):
            BeamsplitterSpec(bad)
        with pytest.raises(ValueError, match="^eta must be a number that fits a float"):
            DistinguishabilityParam(bad)

    @pytest.mark.parametrize("good", [0, 1, 0.5, pytest.param("0.5", id="text"),
                                      Fraction(1, 3), np.float64(0.25),
                                      pytest.param(b"0.5", id="bytes")])
    def test_accepted_values_are_stored_as_given(self, good):
        """"As given" means as the number rule reads it: a plain float."""
        for spec, field in ((BeamsplitterSpec(good), "theta"),
                            (DistinguishabilityParam(good), "eta")):
            stored = getattr(spec, field)
            assert type(stored) is float and stored == float(good)
