"""Real-axis quasi-momentum solver: anchors, asymptotics, bound branches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb2b import bethe
from lieb2b.bethe import (TWO_OVER_PI, BetheState, Parity, SolverError,
                          asymptotic_quasimomentum, bethe_residual, energy,
                          j_function, newton_polish, residual_k_derivative,
                          solve_k_real)
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
    state = solve_k_real(n, g)
    assert abs(j_function(g, state.k) - (n + 1)) < 1e-8


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


class TestBrentRoot:
    def test_exact_zero_at_an_endpoint_is_returned(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert bethe._brent_root(f, 1.0, 3.0) == 1.0
        assert bethe._brent_root(f, -2.0, 1.0) == 1.0
        assert len(calls) == 4  # both endpoints, no iteration

    def test_no_sign_change_raises_value_error(self):
        with pytest.raises(ValueError):
            bethe._brent_root(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            bethe._brent_root(lambda x: float("nan"), 0.0, 1.0)

    def test_known_roots_converge(self):
        # kappa tanh(pi kappa / 2) = 1, the n = 0 bound state at g = -1
        kappa = bethe._brent_root(
            lambda x: x * math.tanh(0.5 * math.pi * x) - 1.0, 0.0, 2.0)
        assert abs(kappa * math.tanh(0.5 * math.pi * kappa) - 1.0) < 1e-14
        assert bethe._brent_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-14)
        assert bethe._brent_root(math.cos, 1.0, 2.0) == pytest.approx(
            0.5 * math.pi, abs=1e-14)
        # values near 1e-200 underflow the extrapolation's denominator to
        # zero; that step falls back to bisection instead of dividing
        tiny = bethe._brent_root(lambda x: (x ** 3 - 2.0 * x - 5.0) * 1e-200, 2.0, 3.0)
        assert tiny == pytest.approx(2.0945514815423265, abs=1e-14)
        # a step function has no short secant step: bisection alone ends it
        step = bethe._brent_root(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0)
        assert abs(step - 0.3) < 1e-14

    def test_tiny_coupling_takes_the_polish_fallback(self):
        # at |g| = 1e-300 the residual's sign at k = n is trig round-off,
        # and for these labels it matches the far end: no sign change
        for n, g in ((13, 1e-300), (26, 1e-300), (4, -1e-300), (7, -1e-300)):
            parity = Parity.of_level(n)
            lo, hi = bethe._real_bracket(n, g)
            with pytest.raises(ValueError):
                bethe._brent_root(
                    lambda k: np.real(bethe_residual(parity, g, k)), lo, hi)
            assert solve_k_real(n, g).k == complex(n)

    def test_iteration_limit_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(bethe, "_BRENT_MAX_ITER", 2)
        with pytest.raises(SolverError):
            solve_k_real(3, 0.7)
        # a stray non-convergence costs the sheet its anchors, not the build
        sheet = build_sheet(3, GridSpec(-1.0, 1.5, -0.5, 0.5, 5, 5))
        assert set(sheet.aborted_columns) == set(range(5))
        assert np.isnan(sheet.k).all()


def test_brent_root_matches_scipy_brentq_bit_for_bit():
    """The port returns scipy's double on the `spectrum` distribution.

    n uniform in 0..40, g = +-10^u with u uniform in [-3, 6]; each draw
    gives the bracket solve_k_real would search: the real residual, or
    the n = 0 / n = 1 bound equation in kappa.
    """
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(20240607)
    kinds = set()
    for _ in range(3000):
        n = int(rng.integers(0, 41))
        g = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0))
        parity = Parity.of_level(n)
        if n == 0 and g < 0:
            f = lambda x, g=g: x * np.tanh(0.5 * np.pi * x) + g
            lo, hi, kind = 0.0, max(1.0, -g) + 1.0, "bound-even"
        elif n == 1 and g < -TWO_OVER_PI:
            f = (lambda x, g=g: x / np.tanh(0.5 * np.pi * x) + g if x > 0
                 else TWO_OVER_PI + g)
            lo, hi, kind = 1e-13, max(1.0, -g) + 1.0, "bound-odd"
        else:
            f = lambda k, p=parity, g=g: np.real(bethe_residual(p, g, k))
            (lo, hi), kind = bethe._real_bracket(n, g), "real"
        kinds.add(kind)
        try:
            expected = optimize.brentq(f, lo, hi, xtol=1e-14)
        except ValueError:
            with pytest.raises(ValueError):
                bethe._brent_root(f, lo, hi)
            continue
        assert bethe._brent_root(f, lo, hi) == expected, (n, g)
    assert kinds == {"real", "bound-even", "bound-odd"}
