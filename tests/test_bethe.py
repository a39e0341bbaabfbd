"""Real-axis quasi-momentum solver: anchors, asymptotics, bound branches."""

import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb2b import bethe
from lieb2b.bethe import (DEEP_IM_H, RESIDUAL_ACCEPT, TWO_OVER_PI, BetheState,
                          Parity, SolverError, asymptotic_quasimomentum,
                          bethe_residual, energy, newton_polish, real_axis_k,
                          residual_k_derivative, residual_scale,
                          residual_terms, scaled_bethe_residual, solve_k_real)
from lieb2b.continuation import GridSpec, build_sheet


def test_free_limit_is_exact():
    for n in range(11):
        assert solve_k_real(n, 0.0).k == n + 0j


def test_strong_coupling_limits():
    for n in range(2, 9):
        assert abs(solve_k_real(n, 1e6).k - (n + 1)) < 1e-3
        assert abs(solve_k_real(n, -1e6).k - (n - 1)) < 1e-3


def test_quasi_momentum_increases_with_coupling():
    for n in (2, 3, 5, 8):
        ks = [solve_k_real(n, g).k.real for g in np.linspace(-50.0, 50.0, 21)]
        assert all(a < b for a, b in zip(ks, ks[1:]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=12),
       g=st.floats(min_value=1e-3, max_value=1e3))
def test_j_function_counts_levels_at_positive_coupling(n, g):
    # J(g, k) = k + (2/pi) arctan(k/g), principal branch
    k = solve_k_real(n, g).k
    assert abs(k + TWO_OVER_PI * np.arctan(k / g) - (n + 1)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=12),
       g=st.floats(min_value=-1e3, max_value=1e3))
def test_residual_vanishes_on_solutions(n, g):
    state = solve_k_real(n, g)
    assert state.scaled_residual() < 1e-10


def test_ground_branch_binds_at_negative_coupling():
    for g in (-0.2, -1.0, -4.0, -10.0):
        k = solve_k_real(0, g).k
        assert k.real == 0.0
        assert k.imag < 0.0
    # deep binding energy approaches -g^2/2 through k ~ -i|g|
    k = solve_k_real(0, -10.0).k
    assert abs(k.imag + 10.0) / 10.0 < 0.1


def test_first_excited_binds_below_threshold():
    threshold = Parity.ODD.real_branch_point
    assert threshold == -2.0 / np.pi
    k_at = solve_k_real(1, threshold).k
    assert k_at == 0.0 + 0.0j
    k_above = solve_k_real(1, threshold + 0.05).k
    assert k_above.imag == 0.0 and 0.0 < k_above.real < 1.0
    k_below = solve_k_real(1, -3.0).k
    assert k_below.real == 0.0 and k_below.imag < 0.0


def test_bound_branch_connects_continuously():
    ks = [solve_k_real(0, g).k for g in np.linspace(-0.5, 0.5, 11)]
    steps = [abs(b - a) for a, b in zip(ks, ks[1:])]
    assert max(steps) < 0.35


def test_energy_requires_matching_parity():
    state = solve_k_real(2, 1.0)
    level = energy(0, state)
    assert level.kbar == 0
    assert level.energy.imag == 0.0
    with pytest.raises(ValueError):
        energy(1, state)


def test_energy_combines_both_momenta():
    state = solve_k_real(3, 2.0)
    level = energy(5, state)
    assert level.energy == pytest.approx(0.5 * (25 + state.k**2), abs=1e-12)


def test_asymptotic_labels():
    assert asymptotic_quasimomentum(4, +1) == 5
    assert asymptotic_quasimomentum(4, -1) == 3
    with pytest.raises(ValueError):
        asymptotic_quasimomentum(4, 0)


def test_newton_polish_restores_perturbed_root():
    state = solve_k_real(4, 1.3)
    k, residual = newton_polish(state.parity, state.g, state.k + 1e-4)
    assert abs(k - state.k) < 1e-12
    assert residual < 1e-12


def test_residual_derivative_matches_difference_quotient():
    parity = Parity.EVEN
    g, k = 0.7, 2.3 + 0.1j
    h = 1e-6
    fd = (bethe_residual(parity, g, k + h) - bethe_residual(parity, g, k - h)) / (2 * h)
    assert abs(residual_k_derivative(parity, g, k) - fd) < 1e-7


def test_state_validates_parity_consistency():
    with pytest.raises(ValueError):
        BetheState(2, 1.0, 2.5, Parity.ODD)


def test_rejects_unknown_branch():
    with pytest.raises((SolverError, ValueError)):
        solve_k_real(-1, 1.0)


def real_bracket(n, g):
    """Interval the real branch n is searched in at coupling g != 0."""
    if g > 0:
        return float(n), n + 1.0
    return (1e-13, 1.0) if n == 1 else (n - 1.0, float(n))


class TestBrentRoot:
    """The bracketed real-axis search: round-off at small coupling and
    the iteration cap."""

    def test_tiny_coupling_takes_the_polish_fallback(self):
        # at |g| = 1e-300 the residual's sign at k = n is trig round-off,
        # and for these labels it matches the far end: no sign change
        for n, g in ((13, 1e-300), (26, 1e-300), (4, -1e-300), (7, -1e-300)):
            assert solve_k_real(n, g).k == complex(n)

    @pytest.mark.parametrize("n, g", [(92, -1.03e-12), (1628, 1.78e-12),
                                      (3554, -4.7e-10)])
    def test_small_coupling_without_sign_change_is_polished(self, n, g):
        # round-off in sin/cos(pi n/2) grows like n*eps and hides the
        # sign change; the root must still lie in the bracket
        parity = Parity.of_level(n)
        lo, hi = real_bracket(n, g)
        k = solve_k_real(n, g).k
        assert k.imag == 0.0 and lo <= k.real <= hi
        assert abs(k.real - n) < 1e-12
        assert scaled_bethe_residual(parity, g, k) <= 1e-10

    def test_iteration_limit_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(bethe, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(SolverError):
            solve_k_real(3, 0.7)
        # a stray non-convergence costs the sheet its anchors, not the build
        sheet = build_sheet(3, GridSpec(-1.0, 1.5, -0.5, 0.5, 5, 5))
        assert set(sheet.aborted_columns) == set(range(5))
        assert np.isnan(sheet.k).all()

    @pytest.mark.parametrize("g", [1e-300, -1e-300, 1e-40, -1e-40, 1e-20, -1e-20])
    def test_ground_branch_near_zero_coupling_converges(self, monkeypatch, g):
        # the root sqrt(2|g|/pi) lies far above the chord's zero ~|g|;
        # halving down from there would not converge within eight steps
        monkeypatch.setattr(bethe, "NEWTON_MAX_STEPS", 8)
        k = complex(real_axis_k(0, g))
        root = np.sqrt(2.0 * abs(g) / np.pi)
        assert abs(abs(k) - root) <= 1e-12 * root


ROOTS = pathlib.Path(__file__).resolve().parent / "data" / "real_axis_roots.txt"


def test_real_axis_k_matches_frozen_roots():
    """Roots of the Brent search with Newton polish that the array solve
    replaced, on its oracle test's draw: seed 20240607, n in 0..40,
    g = +-10^u with u in [-3, 6], with real, bound-even and bound-odd
    points.  The largest relative difference measured is 1.1e-15."""
    rows = [line.split() for line in ROOTS.read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 3000
    n = np.array([int(r[0]) for r in rows])
    g = np.array([float.fromhex(r[1]) for r in rows])
    frozen = np.array([complex(float.fromhex(r[2]), float.fromhex(r[3])) for r in rows])
    bound = ((n == 0) & (g < 0)) | ((n == 1) & (g < -TWO_OVER_PI))
    assert 0 < np.count_nonzero(bound & (n == 0)) and 0 < np.count_nonzero(bound & (n == 1))
    assert np.count_nonzero(~bound) > 0
    k = real_axis_k(n, g)
    assert np.all(np.abs(k - frozen) <= 1e-14 * np.maximum(1.0, np.abs(frozen)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=4000),
       points=st.lists(st.tuples(st.sampled_from((-1.0, 1.0)),
                                 st.floats(min_value=-12.0, max_value=6.0)),
                       min_size=1, max_size=8))
def test_real_axis_k_roots_pass_and_match_the_point_solve(n, points):
    g = np.array([sign * 10.0 ** u for sign, u in points])
    k = real_axis_k(n, g)
    parity = Parity.of_level(n)
    for gj, kj in zip(g, k):
        assert scaled_bethe_residual(parity, gj, kj) <= RESIDUAL_ACCEPT
        if (n == 0 and gj < 0) or (n == 1 and gj < -TWO_OVER_PI):
            assert kj.real == 0.0 and kj.imag < 0.0
        else:
            lo, hi = real_bracket(n, gj)
            assert kj.imag == 0.0 and lo <= kj.real <= hi
        # bit for bit, signs of zero included
        assert np.array(solve_k_real(n, gj).k).tobytes() == np.array(kj).tobytes()


def _old_scaled_residual(parity, g, k):
    """The exp-damped quotient scaled_bethe_residual used before it moved
    onto residual_terms, kept as an independent reference."""
    h = 0.5 * np.pi * k
    y = h.imag
    x = h.real
    damp = np.exp(-2.0 * abs(y))
    cosh_r = 0.5 * (1.0 + damp)
    sinh_r = 0.5 * np.copysign(1.0 - damp, y)
    sin_r = complex(np.sin(x) * cosh_r, np.cos(x) * sinh_r)
    cos_r = complex(np.cos(x) * cosh_r, -np.sin(x) * sinh_r)
    sh, ch = abs(sin_r), abs(cos_r)
    ak, ag, ah = abs(k), abs(g), abs(h)
    if parity is Parity.EVEN:
        num = abs(k * sin_r - g * cos_r)
        scale = ak * sh + ag * ch + ah * (ak * ch + ag * sh)
    else:
        num = abs(k * cos_r + g * sin_r)
        scale = ak * ch + ag * sh + ah * (ak * sh + ag * ch)
    return num / scale


def _random_points(rng, size, im_k_range):
    im = rng.uniform(*im_k_range, size) * rng.choice([-1.0, 1.0], size)
    k = rng.normal(0.0, 20.0, size) + 1j * im
    g = rng.normal(0.0, 300.0, size) + 1j * rng.normal(0.0, 2.0, size)
    return g, k


class TestResidualTerms:
    IM_K_EDGE = DEEP_IM_H / (0.5 * np.pi)

    def test_shallow_points_are_bit_identical(self):
        rng = np.random.default_rng(5)
        g, k = _random_points(rng, 400, (0.0, self.IM_K_EDGE))
        k[:2] = (3.0 - 1j * self.IM_K_EDGE, 0.5 + 1j * self.IM_K_EDGE)
        for parity in Parity:
            expected = (bethe_residual(parity, g, k),
                        residual_k_derivative(parity, g, k),
                        residual_scale(parity, g, k))
            *got, lf = residual_terms(parity, g, k)
            assert np.shape(lf) == np.shape(got[0]) and np.all(lf == 0)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
            for gi, ki in zip(g[:50], k[:50]):
                gi, ki = complex(gi), complex(ki)
                r, dr, scale, lf = residual_terms(parity, gi, ki)
                assert lf == 0
                assert r == bethe_residual(parity, gi, ki)
                assert dr == residual_k_derivative(parity, gi, ki)
                assert scale == residual_scale(parity, gi, ki)
                assert scaled_bethe_residual(parity, gi, ki) == float(
                    abs(bethe_residual(parity, gi, ki)) / residual_scale(parity, gi, ki))

    def test_mixed_array_keeps_shallow_entries(self):
        rng = np.random.default_rng(6)
        g, k = _random_points(rng, 200, (0.0, 2.0 * self.IM_K_EDGE))
        shallow = np.abs(0.5 * np.pi * k.imag) <= DEEP_IM_H
        assert 0 < shallow.sum() < shallow.size
        for parity in Parity:
            *got, lf = residual_terms(parity, g, k)
            assert np.all((lf == 0) == shallow)
            with np.errstate(all="ignore"):
                expected = (bethe_residual(parity, g, k),
                            residual_k_derivative(parity, g, k),
                            residual_scale(parity, g, k))
            for a, b in zip(got, expected):
                assert np.array_equal(a[shallow], b[shallow])
                assert np.all(np.isfinite(a))

    def test_deep_points_carry_the_log_factor(self):
        # |Im h| in (300, 700): the unscaled terms are still finite
        rng = np.random.default_rng(7)
        g, k = _random_points(rng, 300, (1.01 * self.IM_K_EDGE, 440.0))
        for parity in Parity:
            r, dr, scale, lf = residual_terms(parity, g, k)
            assert np.array_equal(lf, np.abs(0.5 * np.pi * k.imag))
            factor = np.exp(lf)
            np.testing.assert_allclose(r * factor, bethe_residual(parity, g, k),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(dr * factor,
                                       residual_k_derivative(parity, g, k),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(scale * factor, residual_scale(parity, g, k),
                                       rtol=1e-12, atol=0)

    def test_deep_quotient_matches_the_damped_formula(self):
        # the kernel's numpy complex arithmetic may round differently in
        # the last bits from the Python arithmetic of the reference
        rng = np.random.default_rng(8)
        g, k = _random_points(rng, 2000, (1.01 * self.IM_K_EDGE, 1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for parity in Parity:
                r, _, scale, _ = residual_terms(parity, g, k)
                for gi, ki, q in zip(g, k, np.abs(r) / scale):
                    gi, ki = complex(gi), complex(ki)
                    ref = _old_scaled_residual(parity, gi, ki)
                    assert q == pytest.approx(ref, rel=1e-13, abs=1e-17)
                    assert scaled_bethe_residual(parity, gi, ki) == pytest.approx(
                        ref, rel=1e-13, abs=1e-17)

    def test_overflowing_scale_is_nan(self):
        # beyond |k| ~ 1e154 even the rescaled scale overflows: no
        # residual may pass against it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, _, scale, _ = residual_terms(Parity.EVEN, -1e160, -1e160j)
            assert np.isnan(scale)
            assert not scaled_bethe_residual(Parity.EVEN, -1e160, -1e160j) <= 1.0
