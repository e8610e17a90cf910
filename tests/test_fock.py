import math

import numpy as np
import pytest

from bosonctx.fock import FockState, basis_state, fock_basis, make_fock, pure_state
from bosonctx.optics import apply_interferometer


def _recursive_basis(total: int, modes: int) -> list[tuple[int, ...]]:
    """The reference order: the first mode's count ascending, then the rest's
    basis, one recursion level per mode."""
    if modes == 1:
        return [(total,)]
    return [(first, *rest) for first in range(total + 1)
            for rest in _recursive_basis(total - first, modes - 1)]


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
        # a complex is refused, never read as its real part
        for bad in (0.5, float("inf"), float("-inf"), float("nan"), None,
                    1 + 0j, np.complex128(1 + 0j), np.complex64(1)):
            with pytest.raises(ValueError):
                make_fock([1, bad])

    @pytest.mark.parametrize("occupations", ["10", b"\x01\x00", bytearray(b"\x01\x00")],
                             ids=["text", "bytes", "bytearray"])
    def test_text_or_bytes_is_refused_though_it_iterates(self, occupations):
        with pytest.raises(ValueError, match="^occupations must not be text or bytes"):
            make_fock(occupations)

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

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                     complex(1, -math.inf)],
                             ids=["nan", "inf", "-inf", "nan-imag", "inf-imag"])
    def test_a_non_finite_amplitude_is_refused(self, amp):
        with pytest.raises(ValueError, match="^amplitude must be a finite number"):
            pure_state({(1, 0): amp})

    @pytest.mark.parametrize("build", [
        lambda z: pure_state({(1, 0): z}),
        lambda z: apply_interferometer(basis_state([1, 0]), [[z, 0], [0, 1]]),
    ], ids=["pure_state", "apply_interferometer"])
    def test_a_finite_amplitude_whose_modulus_overflows_is_kept(self, build):
        """Both parts fit a float but |z| does not: the modulus is past ``PRUNE``."""
        z = complex(1.7e308, 1.7e308)
        assert build(z).terms == {make_fock([1, 0]): z}

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

    @pytest.mark.parametrize("total", range(9))
    def test_order_is_the_recursive_lexicographic_order(self, total):
        for modes in range(1, 8):
            assert [f.occupations for f in fock_basis(total, modes)] == \
                _recursive_basis(total, modes)

    def test_more_modes_than_the_recursion_limit(self):
        assert fock_basis(0, 5000) == [FockState((0,) * 5000)]
        assert [f.occupations.index(1) for f in fock_basis(1, 1200)] == list(range(1199, -1, -1))
        identity = [[float(i == j) for j in range(1100)] for i in range(1100)]
        state = basis_state([1] + [0] * 1099)
        assert apply_interferometer(state, identity).terms == state.terms
