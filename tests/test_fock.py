import math

import pytest

from bosonctx.fock import FockState, fock_basis, make_fock, pure_state


class TestMakeFock:
    def test_basic_construction(self):
        f = make_fock([1, 1])
        assert f.modes == 2
        assert f.total == 2
        assert f.occupations == (1, 1)

    def test_bunched_state(self):
        f = make_fock([0, 2])
        assert f.modes == 2
        assert f.total == 2

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            make_fock([1, -1])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            make_fock([])

    def test_fractional_entry_rejected(self):
        for bad in (0.5, float("inf"), float("-inf"), float("nan"), None):
            with pytest.raises(ValueError):
                make_fock([1, bad])

    def test_integral_floats_accepted(self):
        assert make_fock([1.0, 2.0]) == FockState((1, 2))


class TestPureState:
    def test_prune_drops_tiny_terms(self):
        st = pure_state({(1, 0): 1.0, (0, 1): 1e-16})
        assert st.amplitude((0, 1)) == 0j
        assert len(st.terms) == 1

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pure_state({(1, 0): 1.0, (0, 1, 0): 1.0})

    def test_empty_state_needs_modes(self):
        with pytest.raises(ValueError):
            pure_state({})
        assert pure_state({}, modes=2).modes == 2


class TestFockBasis:
    def test_two_photons_two_modes(self):
        occs = [f.occupations for f in fock_basis(2, 2)]
        assert occs == [(0, 2), (1, 1), (2, 0)]

    def test_counts_match_stars_and_bars(self):
        assert len(fock_basis(3, 3)) == math.comb(3 + 3 - 1, 3 - 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fock_basis(-1, 2)
        with pytest.raises(ValueError):
            fock_basis(2, 0)
