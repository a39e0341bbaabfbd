"""Profile pairings and the quadrature connection oracle.

The oracle integrates explicit wavefunctions with Gauss-Legendre
quadrature and differentiates overlaps by central differences; it
shares no code path with the closed-form connection it is used to
check, which is what makes the comparison in test_holonomy meaningful.
"""

import warnings

import numpy as np
import pytest

from lieb2b import bethe
from lieb2b.bethe import Parity, SolverError, solve_k_real
from lieb2b.continuation import sheet_value
from lieb2b.eigensystem import (biorthonormality_defect, normalization_pt,
                                overlap_connection_oracle, right_profiles, sinc_pi)


class TestScalarPieces:
    def test_sinc_series_matches_direct(self):
        for k in (1e-5, 1e-6 + 1e-7j, 3e-5j):
            direct = np.sin(np.pi * k) / (np.pi * k)
            assert abs(sinc_pi(k) - direct) < 1e-12

    def test_sinc_at_integer_levels(self):
        assert sinc_pi(0) == 1.0
        for n in (1, 2, 3):
            assert abs(sinc_pi(n)) < 1e-15

    def test_normalization_positive_on_real_branches(self):
        for parity, k in ((Parity.EVEN, 0.7), (Parity.ODD, 1.3)):
            a = normalization_pt(parity, k)
            assert a.imag == pytest.approx(0.0, abs=1e-15)
            assert a.real > 0


def real_axis_left_profile(n, g, x):
    """The left eigenfunction at real g by its own route: wavenumber
    k_n(conj(g)) = s conj(k_n(g)) and the biorthogonal normalization
    a_L = conj(s_par 2 / ((1 +- sinc(k)) a(k))), with s read off k
    (real: +1, bound imaginary: -1) and s_par = s for odd n, 1 for even."""
    k = solve_k_real(n, g).k
    parity = Parity.of_level(n)
    s = 1 if abs(k.imag) <= abs(k.real) else -1
    s_par = 1 if parity is Parity.EVEN else s
    weight = 1.0 + sinc_pi(k) if parity is Parity.EVEN else 1.0 - sinc_pi(k)
    a_left = np.conj(s_par * 2.0 / (weight * normalization_pt(parity, k)))
    arg = 0.5 * np.conj(s * k) * (x - np.pi)
    trig = np.cos(arg) if parity is Parity.EVEN else np.sin(arg)
    return a_left / np.sqrt(2.0 * np.pi) * trig


class TestEigenfunctions:
    def test_left_profile_is_conjugate_at_real_coupling(self):
        x = np.linspace(0.0, 2.0 * np.pi, 7)
        for n, g in ((2, 1.3), (0, -0.5), (3, 0.8), (1, -3.0)):
            right = right_profiles(Parity.of_level(n), [solve_k_real(n, g).k], x)[0]
            np.testing.assert_allclose(real_axis_left_profile(n, g, x), np.conj(right),
                                       rtol=0, atol=1e-12)

    def test_conjugated_profile_closed_form(self):
        # the closed-form conjugated left profile is the right profile
        x = np.linspace(0.0, 2.0 * np.pi, 9)
        for n, g in ((2, 1.1), (4, -0.6), (3, 2.0)):
            closed = right_profiles(Parity.of_level(n), [solve_k_real(n, g).k], x)[0]
            np.testing.assert_allclose(closed, np.conj(real_axis_left_profile(n, g, x)),
                                       rtol=0, atol=1e-12)

    def test_pairing_is_biorthonormal_at_real_coupling(self):
        for parity in (Parity.EVEN, Parity.ODD):
            for g in (1.5, -1.5):
                levels = range(parity.bound_level, 10, 2)
                assert biorthonormality_defect(levels, g) < 1e-8

    def test_pairing_is_biorthonormal_at_complex_coupling(self):
        g = 1.0 - 0.8j
        levels = [0, 2, 4, 6]
        ks = [sheet_value(n, g) for n in levels]
        assert biorthonormality_defect(levels, g, k_values=ks) < 1e-8

    def test_bound_branch_normalization(self):
        for n, g in ((0, -0.5), (1, -3.0)):
            assert biorthonormality_defect([n], g) < 1e-10

    def test_levels_of_both_families_are_refused(self):
        with pytest.raises(ValueError, match="mix the even and odd"):
            biorthonormality_defect([0, 1, 2], 1.0)


class TestOracle:
    def test_oracle_matrix_is_hermitian_at_real_coupling(self):
        for parity in (Parity.EVEN, Parity.ODD):
            a = overlap_connection_oracle(6, 0.8, parity=parity)
            assert np.max(np.abs(a - a.conj().T)) < 1e-7

    def test_oracle_matrix_is_antisymmetric(self):
        # together with hermiticity this makes i*A real antisymmetric,
        # the generator of real-orthogonal transport on the real axis
        for parity in (Parity.EVEN, Parity.ODD):
            a = overlap_connection_oracle(6, 0.8, parity=parity)
            assert np.max(np.abs(a + a.T)) < 1e-7

    def test_oracle_diagonal_vanishes(self):
        a = overlap_connection_oracle(6, 1.3, parity=Parity.EVEN)
        assert np.max(np.abs(np.diag(a))) < 1e-6

    def test_unsolved_root_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(bethe, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(SolverError):
            overlap_connection_oracle(4, 0.7, parity=Parity.ODD)

    def test_odd_real_branch_point_raises_value_error(self):
        # k_1 = 0 there, where 1 - sinc(k) vanishes
        with pytest.raises(ValueError, match="degenerate"):
            overlap_connection_oracle(4, -2 / np.pi, parity=Parity.ODD)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_deep_bound_coupling_raises_value_error(self, parity):
        # pi |Im k| of the bound level passes log(max double) below
        # g of about -226; warnings as errors, so sin must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows past pi"):
                overlap_connection_oracle(4, -300.0, parity=parity)
            near = overlap_connection_oracle(4, -220.0, parity=parity)
        assert np.isfinite(near).all()

    @pytest.mark.parametrize("dg", [0.0, -1e-5, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, dg, monkeypatch):
        # dg = 0 was an all-NaN matrix and a RuntimeWarning; refused
        # before any root is solved
        def unsolved(*args, **kwargs):
            raise AssertionError("a root was solved for a refused step")

        monkeypatch.setattr("lieb2b.eigensystem.real_axis_k", unsolved)
        with pytest.raises(ValueError, match="finite step dg > 0"):
            overlap_connection_oracle(4, 0.5, dg=dg)

    def test_richardson_step_tightens_quotient(self):
        # halving dg must not move the extrapolated result at tolerance
        a = overlap_connection_oracle(4, 0.7, 1e-5, parity=Parity.ODD)
        b = overlap_connection_oracle(4, 0.7, 5e-6, parity=Parity.ODD)
        assert np.max(np.abs(a - b)) < 1e-9
