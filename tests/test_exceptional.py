"""Branch-point search: golden coordinates, local structure, catalog."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb2b import exceptional
from lieb2b.bethe import Parity, branch_point_function, scaled_bethe_residual
from lieb2b.continuation import continue_to, solve_k_real
from lieb2b.exceptional import (ExceptionalPointError, _accept_root,
                                _newton_on_f, _winding_number, enumerate_eps,
                                ep_residual, find_ep, ladder_points, local_expansion,
                                sqrt_coefficient, sqrt_lower_cut)

TWO_OVER_PI = 2.0 / np.pi


class TestSearch:
    def test_matches_frozen_coordinates(self, golden_eps):
        # goldens were produced by an independent multi-start root search
        for n, ref in golden_eps.items():
            ep = find_ep(n, verify_unique=False)
            assert abs(ep.g_ep - ref.g_ep) < 1e-10
            assert abs(ep.k_ep - ref.k_ep) < 1e-10

    def test_residuals_at_machine_precision(self, golden_eps):
        for n in golden_eps:
            ep = find_ep(n, verify_unique=False)
            rb, rr = ep.residuals()
            assert abs(rb) < 1e-10
            assert abs(rr) < 1e-10

    def test_uniqueness_sweep_accepts_lowest_point(self):
        ep = find_ep(2, verify_unique=True)
        assert ep.max_residual() < 1e-10

    def test_rejects_bound_labels(self):
        with pytest.raises(ValueError):
            find_ep(1)

    @pytest.mark.parametrize("n", [4.0, 4.5])
    def test_rejects_a_label_that_is_not_an_integer(self, n):
        # 4.0 was a TypeError from the rung walk
        with pytest.raises(ValueError, match="integer label"):
            find_ep(n)

    def test_takes_numpy_integer_labels(self):
        assert find_ep(np.int64(2), verify_unique=False).n == 2

    def test_real_axis_guard_rejects_degeneracy(self):
        # Newton on F started beside the odd family's real degeneracy
        # converges to it, and the guard refuses it as an EP
        g = _newton_on_f(Parity.ODD, -0.7 - 0.01j, 1e-12)
        assert abs(g + TWO_OVER_PI) < 1e-12
        with pytest.raises(ExceptionalPointError, match="real axis"):
            _accept_root(Parity.ODD, 3, g)

    def test_upper_half_plane_root_is_folded(self, golden_eps):
        ref = golden_eps[3]
        assert _accept_root(Parity.ODD, 3, ref.g_ep.conjugate()) == ref.g_ep

    def test_half_plane_conventions(self, golden_eps):
        for n, ep in golden_eps.items():
            assert ep.g_ep.imag < 0
            assert ep.k_ep.real > 0
            limit = 0.0 if ep.parity is Parity.EVEN else -TWO_OVER_PI
            assert ep.g_ep.real < limit

    def test_strong_coupling_drift(self, golden_eps):
        # |g_ep + i(n-1)|/(n-1) shrinks as the label grows
        rel = [abs(golden_eps[n].g_ep + 1j * (n - 1)) / (n - 1)
               for n in (4, 6, 8)]
        assert rel[0] > rel[1] > rel[2]

    def test_every_label_to_200(self):
        # from n = 89 up the roots lie beyond the reach of a Newton
        # search seeded at the estimate -i(n-1)
        for n in range(2, 201):
            ep = find_ep(n)
            assert ep.n == n and ep.n_b == n % 2
            assert scaled_bethe_residual(ep.parity, ep.g_ep, ep.k_ep) <= 1e-10
            assert abs(branch_point_function(ep.g_ep, ep.k_ep)) <= 1e-10


def _box(corners):
    """Closed polygon through the corners, as a contour t -> g."""
    c = np.array(list(corners) + [corners[0]], dtype=complex)
    sides = len(corners)

    def contour(t):
        s = np.asarray(t) * sides
        i = np.minimum(s.astype(int), sides - 1)
        return c[i] + (c[i + 1] - c[i]) * (s - i)

    return contour


class TestCertificate:
    def test_zero_count_on_search_box(self):
        # Re g in [-6, -0.05], Im g in [-9.5, -0.3] holds the even
        # points n = 2..10 and the odd points n = 3..9
        box = _box([-6 - 9.5j, -0.05 - 9.5j, -0.05 - 0.3j, -6 - 0.3j])
        assert _winding_number(Parity.EVEN, box) == 5
        assert _winding_number(Parity.ODD, box) == 4

    def test_winding_counts_neighbouring_rungs(self, golden_eps):
        # radius 1 sees one root, radius 2.5 also sees the rungs n -/+ 2
        g4 = golden_eps[4].g_ep
        assert _winding_number(Parity.EVEN, lambda t: g4 + np.exp(2j * np.pi * t)) == 1
        assert _winding_number(Parity.EVEN,
                               lambda t: g4 + 2.5 * np.exp(2j * np.pi * t)) == 3
        assert _winding_number(Parity.EVEN,
                               lambda t: g4 + 1 + 0.5 * np.exp(2j * np.pi * t)) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=1000))
def test_ladder_property(n):
    ep = find_ep(n)
    above = find_ep(n + 2, verify_unique=False)
    g, k = ep.g_ep, ep.k_ep
    assert scaled_bethe_residual(ep.parity, g, k) <= 1e-10
    assert abs(sqrt_coefficient(ep) - TWO_OVER_PI) <= 1e-6
    assert g.imag < 0 and k.real >= 0 and g.real < ep.parity.real_branch_point
    # one rung up, never skipped or repeated
    assert 1.9 <= abs(above.g_ep - g) <= 2.2


class TestCatalog:
    def test_even_family_count(self):
        eps = enumerate_eps(Parity.EVEN, 8, verify_unique=False)
        assert [ep.n for ep in eps] == [2, 4, 6, 8]

    def test_odd_family_count(self):
        eps = enumerate_eps(Parity.ODD, 9, verify_unique=False)
        assert [ep.n for ep in eps] == [3, 5, 7, 9]

    def test_minimal_catalog(self):
        eps = enumerate_eps(Parity.EVEN, 2, verify_unique=False)
        assert len(eps) == 1 and eps[0].n == 2

    def test_top_label_must_be_an_integer(self):
        # 4.5 was a TypeError from range
        with pytest.raises(ValueError, match="integer label"):
            enumerate_eps(Parity.EVEN, 4.5)
        eps = enumerate_eps(Parity.EVEN, np.int64(4), verify_unique=False)
        assert [ep.n for ep in eps] == [2, 4]

    @pytest.mark.parametrize("n_max", [True, False])
    def test_top_label_must_not_be_a_bool(self, n_max):
        # True walked up to label 1, which is no walk at all
        with pytest.raises(ValueError, match="integer label, not a bool"):
            list(ladder_points(Parity.EVEN, n_max))
        with pytest.raises(ValueError, match="integer label, not a bool"):
            enumerate_eps(Parity.ODD, n_max)

    def test_one_walk_serves_every_label(self, monkeypatch):
        newton = exceptional._newton_on_f
        calls = []

        def counted(*args):
            calls.append(args)
            return newton(*args)

        monkeypatch.setattr(exceptional, "_newton_on_f", counted)
        eps = enumerate_eps(Parity.EVEN, 200)
        assert len(calls) == 100  # one Newton run per rung 2, 4, ..., 200
        monkeypatch.undo()
        assert eps == [find_ep(n) for n in range(2, 201, 2)]

    def test_failures_match_per_label_search(self, monkeypatch, golden_eps):
        # rung 10's root is refused, which fails every rung above it too;
        # rung 4's certificate counts two roots, which fails rung 4 alone
        accept, winding = exceptional._accept_root, exceptional._winding_number
        g4 = golden_eps[4].g_ep

        def refuse_10(parity, n, g):
            if n == 10:
                raise ExceptionalPointError("rung 10 refused")
            return accept(parity, n, g)

        def doubled_at_4(parity, contour):
            return 2 if abs(contour(0.0) - 1.0 - g4) < 1e-8 else winding(parity, contour)

        monkeypatch.setattr(exceptional, "_accept_root", refuse_10)
        monkeypatch.setattr(exceptional, "_winding_number", doubled_at_4)
        with pytest.raises(ExceptionalPointError) as caught:
            enumerate_eps(Parity.EVEN, 14)
        per_label = {}
        for n in range(2, 15, 2):
            try:
                find_ep(n)
            except ExceptionalPointError as exc:
                per_label[n] = str(exc)
        assert sorted(per_label) == [4, 10, 12, 14]
        assert caught.value.failures == per_label


class TestLocalStructure:
    def test_sqrt_coefficient_is_two_over_pi(self, golden_eps):
        for n in golden_eps:
            ep = find_ep(n, verify_unique=False)
            assert abs(sqrt_coefficient(ep) - TWO_OVER_PI) < 1e-6

    def test_sqrt_lower_cut_branch(self):
        assert sqrt_lower_cut(1.0) == pytest.approx(1.0)
        assert sqrt_lower_cut(-1.0) == pytest.approx(1j)
        # just left of the downward cut
        below = sqrt_lower_cut(-1e-18 - 1.0j)
        assert below.real < 0

    def test_sqrt_lower_cut_matches_its_own_formula(self):
        # the earlier closed form, the argument of eps taken in
        # (-pi/2, 3 pi/2], against 1j * rotated_sqrt(-eps)
        def reference(eps):
            if eps == 0:
                return 0.0 + 0.0j
            a = cmath.phase(eps)
            if a <= -0.5 * np.pi:
                a += 2.0 * np.pi
            return cmath.sqrt(abs(eps)) * cmath.exp(0.5j * a)

        axis = np.concatenate([-np.logspace(-8, 3, 50), [-0.0, 0.0],
                               np.logspace(-8, 3, 50)])
        points = [complex(x, y) for x in axis for y in axis]
        points += [complex(x, 0.0) for x in axis] + [complex(0.0, y) for y in axis]
        for eps in points:
            ref = reference(eps)
            assert abs(sqrt_lower_cut(eps) - ref) <= 1e-15 * abs(ref)

    def test_expansion_tracks_continuation(self):
        ep = find_ep(2, verify_unique=False)
        eps_off = 1e-4
        k_b, k_e = local_expansion(ep, eps_off)
        # continue both colliding branches from the real axis to g_ep + eps
        target = ep.g_ep + eps_off
        for n, k_pred in ((0, k_b), (2, k_e)):
            end = continue_to(solve_k_real(n, target.real), target)
            assert abs(end.k - k_pred) < 2e-4

    def test_gap_scaling_exponent(self):
        # fit |k+ - k-| ~ C eps^alpha over four decades
        ep = find_ep(2, verify_unique=False)
        sizes = [1e-3, 1e-4, 1e-5, 1e-6]
        gaps = [abs(np.subtract(*local_expansion(ep, e))) for e in sizes]
        alpha = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
        assert abs(alpha - 0.5) < 5e-3

    def test_gap_prefactor(self):
        ep = find_ep(4, verify_unique=False)
        e = 1e-5
        k_b, k_e = local_expansion(ep, e)
        assert abs(abs(k_e - k_b) - 2.0 * np.sqrt(TWO_OVER_PI * e)) < 1e-8

    def test_expansion_warns_outside_trust_radius(self):
        ep = find_ep(2, verify_unique=False)
        with pytest.warns(UserWarning):
            local_expansion(ep, 0.5)

    def test_measured_exponent_from_continuation(self):
        # independent alpha: continue the two branches around the point
        # at shrinking distances and fit the collision gap
        ep = find_ep(2, verify_unique=False)
        sizes = [1e-3, 3e-4, 1e-4]
        gaps = []
        for e in sizes:
            target = ep.g_ep + e
            k0 = continue_to(solve_k_real(0, target.real), target).k
            k2 = continue_to(solve_k_real(2, target.real), target).k
            gaps.append(abs(k2 - k0))
        alpha = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
        assert abs(alpha - 0.5) < 5e-3


def test_ep_residual_zero_only_at_point(golden_eps):
    ep = golden_eps[2]
    rb, rr = ep_residual(ep.parity, ep.g_ep, ep.k_ep)
    assert max(abs(rb), abs(rr)) < 1e-10
    rb2, rr2 = ep_residual(ep.parity, ep.g_ep + 0.01, ep.k_ep)
    assert max(abs(rb2), abs(rr2)) > 1e-4
