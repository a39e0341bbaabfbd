"""Analytic continuation off the real axis and sheet construction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb2b.bethe import (DEEP_IM_H, Parity, SolverError, bethe_residual,
                          residual_k_derivative, residual_scale,
                          scaled_bethe_residual, solve_k_real)
from lieb2b import continuation
from lieb2b.continuation import (ComplexPath, GridSpec, TraceStatus,
                                 circle_path, conjugation_symmetry_check,
                                 continue_along, continue_to, build_sheet,
                                 line_path, newton_correct,
                                 newton_correct_array, sheet_value,
                                 tangent_slope, walk_path)
from lieb2b.exceptional import find_ep, ladder_points
from lieb2b.holonomy import TruncationSpec, entry_frame


def ep_g(n):
    return find_ep(n, verify_unique=False).g_ep


class TestPaths:
    def test_waypoints_must_differ_consecutively(self):
        with pytest.raises(ValueError):
            ComplexPath([1.0, 1.0, 2.0])

    def test_single_waypoint_has_no_segments(self):
        path = ComplexPath([1.0])
        assert path.segments() == []
        assert path.length() == 0.0

    def test_reversed_retraces(self):
        path = ComplexPath([1.0, 1.0 - 1.0j, -2.0 - 1.0j])
        back = path.reversed()
        assert back.waypoints[0] == path.waypoints[-1]
        assert back.waypoints[-1] == path.waypoints[0]
        assert back.length() == pytest.approx(path.length())

    def test_circle_path_closes_clockwise(self):
        loop = circle_path(1.0 + 0.5j, 0.25, n_points=12)
        pts = np.asarray(loop.waypoints)
        assert pts[0] == pts[-1]
        assert np.allclose(np.abs(pts - (1.0 + 0.5j)), 0.25)
        # clockwise means the signed polygon area is negative
        area = 0.5 * np.sum(np.real(pts[:-1]) * np.imag(pts[1:])
                            - np.real(pts[1:]) * np.imag(pts[:-1]))
        assert area < 0


class TestContinuation:
    def test_newton_correct_polishes_on_sheet(self):
        g = 0.8 - 0.4j
        k0 = sheet_value(2, g)
        k, scaled, ok = newton_correct(Parity.EVEN, g, k0 + 1e-5, tol=1e-12)
        assert ok
        assert scaled < 1e-12
        assert abs(k - k0) < 1e-10

    def test_sheet_value_matches_real_solver_on_axis(self):
        for n in (0, 1, 2, 5):
            for g in (0.7, 2.0, -0.4):
                assert sheet_value(n, g) == solve_k_real(n, g).k

    def test_path_must_start_at_state_coupling(self):
        state = solve_k_real(2, 1.0)
        with pytest.raises(ValueError):
            continue_along(state, line_path(2.0, 1.0 - 1.0j))

    def test_endpoint_independent_of_homotopic_path(self):
        state = solve_k_real(0, 1.0)
        target = 1.0 - 2.0j
        direct = continue_to(state, target).final_k
        dogleg = continue_along(
            state, ComplexPath([1.0, 2.5 - 0.5j, target])).final_k
        assert abs(direct - dogleg) < 1e-8

    def test_step_halving_does_not_move_endpoint(self):
        state = solve_k_real(0, 1.0)
        coarse = continue_to(state, 1.0 - 2.0j).final_k
        # 401 waypoints: every hop spans at most one 0.005 piece
        fine = continue_along(state, ComplexPath(np.linspace(1.0, 1.0 - 2.0j, 401))).final_k
        assert abs(coarse - fine) < 1e-9

    def test_descent_into_lower_half_plane_binds(self):
        trace = continue_to(solve_k_real(0, 1.0), 1.0 - 2.0j)
        assert trace.status is TraceStatus.COMPLETED
        assert trace.final_k.imag < 0

    def test_conjugation_symmetry_on_standard_sheet(self):
        for n, g in ((0, 1.0 - 1.5j), (2, -0.5 - 1.0j), (3, 1.0 - 2.0j)):
            assert conjugation_symmetry_check(n, g) in (+1, -1)

    @pytest.mark.parametrize("n, g, sign", [
        (0, -0.5 - 0.2j, -1), (0, -3.0 - 1.0j, -1), (1, -1.0 - 0.3j, -1),
        (1, -2.5 - 0.4j, -1), (0, 0.8 - 0.6j, +1), (4, -0.5 - 1.0j, +1)])
    def test_conjugation_sign_is_minus_one_where_the_bound_level_binds(self, n, g, sign):
        # left of the family's real branch point the bound level's k is
        # imaginary on the axis, so its mirror image is -k, not k
        assert conjugation_symmetry_check(n, g) == sign

    def test_record_keeps_samples(self):
        trace = continue_to(solve_k_real(2, 1.0), 1.0 - 1.0j)
        assert len(trace.samples) > 2
        assert trace.samples[-1].scaled_residual < 1e-10

    def test_deep_bound_continuation_reaches_a_root(self):
        # on the bound branch g^2 + k^2 cancels to exactly 0, the arctan
        # pole of dJ/dk; continuation must step on, not divide by zero
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cases = [(0, -400 - 0.5j, sheet_value(0, -400 - 0.5j)),
                     (1, -45 - 0.7j, sheet_value(1, -45 - 0.7j)),
                     (0, -300 - 2j,
                      continue_to(solve_k_real(0, -300.0), -300 - 2j).final_k)]
        assert caught == []
        for n, g, k in cases:
            assert scaled_bethe_residual(Parity.of_level(n), g, k) <= 1e-10

    def test_deep_strip_reaches_roots(self):
        # below Re g ~ -528 the unscaled n = 0 residual overflows
        # (|Im pi k/2| > 709); the correctors rescale it instead
        g = -553.6 - 0.5j
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = continue_to(solve_k_real(0, g.real), g)
            k = sheet_value(0, g)
            sheet = build_sheet(0, GridSpec(-560, -550, -1, 0.5, 201, 201))
        assert caught == []
        assert trace.status is TraceStatus.COMPLETED
        for k_end in (trace.final_k, k):
            assert scaled_bethe_residual(Parity.EVEN, g, k_end) <= 1e-10
        assert not np.isnan(sheet.k).any()
        assert sheet.aborted_columns == {}

    def test_strips_near_the_depth_threshold(self):
        # bound strips whose momenta sit just short of the rescaling depth
        # (|Im pi k/2| ~ 270) or straddle it
        cases = [(0, GridSpec(-180, -170, -1, 0.5, 21, 21)),
                 (1, GridSpec(-180, -170, -1, 0.5, 21, 21)),
                 (0, GridSpec(-200, -150, -1, 0.5, 41, 11))]
        for n, grid in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sheet = build_sheet(n, grid)
            assert not np.isnan(sheet.k).any() and sheet.aborted_columns == {}
            parity = Parity.of_level(n)
            for i, y in enumerate(sheet.im_axis):
                for j, x in enumerate(sheet.re_axis):
                    assert scaled_bethe_residual(parity, complex(x, y), sheet.k[i, j]) <= 1e-10
            for i, j in [(0, 0), (0, -1), (-1, len(sheet.re_axis) // 2)]:
                g = complex(sheet.re_axis[j], sheet.im_axis[i])
                assert abs(sheet.k[i, j] - sheet_value(n, g)) <= 1e-9 * abs(sheet.k[i, j])

    @pytest.mark.parametrize("continuation_to", [
        lambda g: sheet_value(0, g),
        lambda g: continue_to(solve_k_real(0, -3.0), g),
    ])
    def test_coupling_outside_the_domain_is_refused(self, continuation_to):
        # |Re g| = 1e160 lies outside the coupling domain: a typed refusal
        # before any hop, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coupling domain"):
                continuation_to(-1e160 - 0.5j)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([0, 1]), re=st.floats(min_value=-1e6, max_value=-30.0),
           im=st.floats(min_value=-1.0, max_value=1.0))
    def test_deep_bound_sheet_value_is_a_root(self, n, re, im):
        g = complex(re, im)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = sheet_value(n, g)
        assert scaled_bethe_residual(Parity.of_level(n), g, k) <= 1e-10

    def test_branch_point_abort_names_the_branch_point(self):
        g_ep = ep_g(2)
        trace = continue_to(solve_k_real(2, g_ep.real), g_ep)
        assert trace.status is TraceStatus.ABORTED_NEAR_BRANCH_POINT
        assert "branch point" in trace.note
        with pytest.raises(SolverError, match="branch point"):
            sheet_value(2, g_ep)


def binary(ok):
    """A hop result with the scalar hops' step factors."""
    return ok, 1.7 if ok else 0.5


class TestWalkSegment:
    def test_step_rule(self):
        # hops longer than 0.3 are refused: 1 and 0.5 are, 0.25 is taken,
        # then each step grows by 1.7 and halves when refused
        steps = []

        def hop(state, g):
            steps.append(abs(g - state))
            return (g, *binary(steps[-1] <= 0.3))

        g_b = 0.1 - 0.7j
        end, reached, refused = walk_path([1.0, g_b], 1.0 + 0j, hop, h=1.0, max_step=1.0,
                                          min_step=1e-3)
        assert reached and end == g_b and refused is None  # lands on g_b exactly
        assert steps[:5] == pytest.approx([1.0, 0.5, 0.25, 0.425, 0.2125])

    def test_lands_exactly_when_the_last_hop_rounds_to_the_end(self):
        # three hops of a third of the length: the third stops a few ulps
        # short of the remaining length, but the arclength sum rounds to
        # the length itself; the hop must still go to g_b, not to
        # g_a + length * direction, which misses it by 1e-16
        g_a, g_b = -0.15 + 0.7j, -1.57 - 0.89j
        length = abs(g_b - g_a)
        direction = (g_b - g_a) / length
        assert g_a + length * direction != g_b
        hops = []

        def hop(state, g):
            hops.append(g)
            return (g, *binary(True))

        end, reached, _ = walk_path([g_a, g_b], g_a, hop, h=length / 3,
                                    max_step=length / 3, min_step=1e-9)
        assert reached and end == g_b and hops[-1] == g_b and len(hops) == 3

    def test_stall_returns_last_accepted_state(self):
        hops = []

        def hop(state, g):
            hops.append(g)
            return (g, *binary(g.imag > -0.5))

        end, reached, refused = walk_path([0.0, -1.0j], 0j, hop, h=0.2, max_step=0.2,
                                          min_step=1e-6)
        assert not reached and -0.5 < end.imag <= -0.5 + 2e-6
        assert refused == hops[-1] and refused.imag <= -0.5  # the refused try
        # from 0.2, halving 18 times falls below 1e-6
        assert len(hops) < 100

    def test_zero_length_segment(self):
        assert walk_path([1.0, 1.0], "state", None, h=0.1, max_step=0.1,
                         min_step=1e-9) == ("state", True, None)

    def test_step_carries_over_corners(self):
        # doubling steps: the hop clipped at the first corner (0.3) goes
        # on, doubled, into the second segment instead of restarting
        steps = []

        def hop(state, g):
            steps.append(abs(g - state))
            return g, True, 2.0

        end, reached, _ = walk_path([0.0, 1.0, 1.0 + 4.0j], 0j, hop, h=0.1,
                                    max_step=10.0, min_step=1e-9)
        assert reached and end == 1.0 + 4.0j
        assert steps == pytest.approx([0.1, 0.2, 0.4, 0.3, 0.6, 1.2, 2.2])

    def test_stalls_where_a_step_cannot_move_g(self):
        # at |g| = 1e10 doubles are 1.9e-6 apart, far above min_step; a
        # hop accepting only tries that leave g where it is must stall
        # once the step is a few spacings, not halve on towards min_step
        g_a = 1e10 + 0j
        hops = []

        def hop(state, g):
            hops.append(g)
            return (g, *binary(g == state))

        end, reached, refused = walk_path([g_a, g_a + 1.0], g_a, hop, h=0.5,
                                          max_step=1.0, min_step=1e-12)
        assert not reached and end == g_a and refused == hops[-1] != g_a
        assert len(hops) < 25


class TestTangentSlope:
    def test_equals_unscaled_formula(self):
        # the power-of-two scaling is exact: scalars match the formula in
        # Python complex arithmetic, arrays in numpy, bit for bit
        rng = np.random.default_rng(3)
        g = rng.uniform(-50, 50, 200) + 1j * rng.uniform(-50, 50, 200)
        k = rng.uniform(-20, 20, 200) + 1j * rng.uniform(-60, 5, 200)
        # and magnitudes from 1e-100 to 1e100, where the squares neither
        # overflow nor turn subnormal
        g = np.concatenate([g, g * 10.0 ** rng.uniform(-100, 100, 200)])
        k = np.concatenate([k, k * 10.0 ** rng.uniform(-100, 100, 200)])
        def formula(g, k):
            return 2.0 * k / (np.pi * (k * k + g * g + 2.0 * g / np.pi))

        assert np.array_equal(tangent_slope(g, k), formula(g, k))
        for gi, ki in zip(g.tolist(), k.tolist()):
            assert tangent_slope(gi, ki) == formula(gi, ki)

    def test_zero_at_a_branch_point(self):
        assert tangent_slope(0.0, 0.0) == 0j
        assert tangent_slope(-2.0 / np.pi, 0.0) == 0j
        assert np.array_equal(tangent_slope(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                              np.array([0.0, 2.0 / (np.pi * (2.0 + 2.0 / np.pi))]))

    def test_finite_at_g_zero(self):
        assert tangent_slope(0.0, 2.0) == pytest.approx(1.0 / np.pi)


class TestArrayCorrector:
    def test_matches_scalar_corrector_elementwise(self):
        # the 24 odd slots, hopped a short way round the n = 3 branch point
        ep = find_ep(3, verify_unique=False).g_ep
        frame = entry_frame(TruncationSpec(Parity.ODD, 24), ep + 1e-3)
        g_hop = ep + 1e-3 * np.exp(-0.3j)
        # odd-family derivative vanishes where (1 + pi g/2) cos(h) = h sin(h)
        h = 0.5 * np.pi
        g_flat = (h / np.cos(h) - 1.0) / h
        assert residual_k_derivative(Parity.ODD, g_flat, 1.0 + 0j) == 0
        # at g = 0.5 the first steps from these starts are halved 3 and 4 times
        g = np.concatenate([np.full(24, g_hop), [g_flat, 0.5, 0.5]])
        k0 = np.concatenate([frame.k, [1.0, 0.65, 2.3]])
        k, scaled, ok = newton_correct_array(Parity.ODD, g, k0, tol=1e-12)
        ref = [newton_correct(Parity.ODD, gi, ki, tol=1e-12) for gi, ki in zip(g, k0)]
        assert ok.tolist() == [r[2] for r in ref]
        assert ok[:24].all() and not ok[24]
        for ki, (kr, _, _) in zip(k, ref):
            assert abs(ki - kr) <= 1e-12 * max(1.0, abs(kr))

    def test_matches_scalar_corrector_on_deep_points(self):
        # a 201-column row of the deep n = 0 strip, predicted off the
        # axis the way _march_half does and then perturbed
        xs = np.linspace(-560.0, -550.0, 201)
        axis = np.array([solve_k_real(0, x).k for x in xs])
        g = xs - 0.5j
        rng = np.random.default_rng(3)
        k0 = axis + 0.5 + 1e-3 * (rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k, scaled, ok = newton_correct_array(Parity.EVEN, g, k0, tol=1e-12)
            ref = [newton_correct(Parity.EVEN, gi, ki, tol=1e-12)
                   for gi, ki in zip(g, k0)]
        assert ok.all() and all(r[2] for r in ref)
        assert np.all(scaled < 1e-12)
        for ki, gi, (kr, _, _) in zip(k, g, ref):
            assert abs(ki - kr) <= 1e-12 * abs(kr)
            assert scaled_bethe_residual(Parity.EVEN, gi, ki) < 1e-12

    def test_deep_steps_follow_the_unscaled_rule(self):
        # at Re g = -300 (|Im pi k/2| ~ 470) the correctors rescale, yet
        # the unscaled residual is still finite: both correctors must take
        # the unscaled rule's steps, step halvings included
        def unscaled_rule(g, k, tol=1e-12):
            halved = 0
            for _ in range(5):
                r = bethe_residual(Parity.EVEN, g, k)
                if abs(r) / residual_scale(Parity.EVEN, g, k) < tol:
                    return k, True, halved
                step = r / residual_k_derivative(Parity.EVEN, g, k)
                for _ in range(4):
                    if abs(bethe_residual(Parity.EVEN, g, k - step)) <= abs(r):
                        break
                    step *= 0.5
                    halved += 1
                k = k - step
            r = bethe_residual(Parity.EVEN, g, k)
            return k, abs(r) / residual_scale(Parity.EVEN, g, k) < tol, halved

        g = -300 - 0.5j
        rng = np.random.default_rng(11)
        k0 = sheet_value(0, g) + 0.5 * (rng.normal(size=200) + 1j * rng.normal(size=200))
        ref = [unscaled_rule(g, ki) for ki in k0]
        assert sum(r[2] > 0 for r in ref) >= 20
        assert any(r[1] for r in ref) and not all(r[1] for r in ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k, _, ok = newton_correct_array(Parity.EVEN, g, k0, tol=1e-12)
            scalar = [newton_correct(Parity.EVEN, g, ki, tol=1e-12) for ki in k0]
        assert ok.tolist() == [r[1] for r in ref] == [c[2] for c in scalar]
        for ki, (kc, _, _), (kr, _, _) in zip(k, scalar, ref):
            assert abs(ki - kr) <= 1e-10 and abs(kc - kr) <= 1e-10

    def test_calls_near_the_depth_threshold(self):
        # label 0 near Re g = -175 has |Im pi k/2| ~ 275, just short of
        # the rescaling depth: a call from such points alone, and a
        # rescaling call whose deep point converges first and leaves only
        # such points live, must both follow the scalar corrector
        g_band = np.linspace(-180.0, -170.0, 9) - 0.5j
        k_band = np.array([sheet_value(0, gi) for gi in g_band]) + 0.3 - 0.2j
        g_deep = -560.8 - 0.5j
        k_deep, _, ok = newton_correct(Parity.EVEN, g_deep, sheet_value(0, g_deep),
                                       tol=1e-14)
        assert ok and abs(0.5 * np.pi * k_deep.imag) > DEEP_IM_H
        for g, k0 in [(g_band, k_band),
                      (np.append(g_band, g_deep), np.append(k_band, k_deep))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                k, scaled, ok = newton_correct_array(Parity.EVEN, g, k0, tol=1e-12)
                ref = [newton_correct(Parity.EVEN, gi, ki, tol=1e-12)
                       for gi, ki in zip(g, k0)]
            assert ok.all() and all(r[2] for r in ref)
            for ki, (kr, _, _) in zip(k, ref):
                assert abs(ki - kr) <= 1e-12 * abs(kr)

    def test_zero_dimensional_input(self):
        g = 0.8 - 0.4j
        k0 = sheet_value(2, g) + 1e-5
        k, scaled, ok = newton_correct_array(Parity.EVEN, g, k0, tol=1e-12)
        kr, sr, okr = newton_correct(Parity.EVEN, g, k0, tol=1e-12)
        assert np.shape(k) == np.shape(scaled) == np.shape(ok) == ()
        assert bool(ok) == okr
        assert abs(complex(k) - kr) <= 1e-12 * max(1.0, abs(kr))


class TestMonodromy:
    def test_single_loop_swaps_colliding_pair(self):
        e = ep_g(2)
        start_g = e + 0.05
        k0 = sheet_value(0, start_g)
        k2 = sheet_value(2, start_g)
        state = continue_to(solve_k_real(0, e.real + 0.05), start_g)
        loop = circle_path(e, 0.05, n_points=96)
        once = continue_along(state.final_state(), loop).final_k
        assert abs(once - k2) < 1e-6
        assert abs(once - k0) > 0.1

    def test_double_loop_returns_to_start(self):
        e = ep_g(2)
        start_g = e + 0.05
        state = continue_to(solve_k_real(0, e.real + 0.05), start_g)
        k0 = state.final_k
        loop2 = circle_path(e, 0.05, n_points=96, turns=2)
        twice = continue_along(state.final_state(), loop2).final_k
        assert abs(twice - k0) < 1e-6

    def test_loop_away_from_branch_points_is_trivial(self):
        loop = circle_path(1.0, 0.4, n_points=48)
        state = solve_k_real(2, 1.4)
        around = continue_along(state, loop).final_k
        assert abs(around - state.k) < 1e-9


class TestSheets:
    def test_grid_must_straddle_real_axis(self):
        with pytest.raises(ValueError):
            GridSpec(im_min=0.5, im_max=2.0)

    def test_excited_sheet_has_single_cut(self):
        grid = GridSpec(re_min=-3.0, re_max=1.0, im_min=-4.0, im_max=0.5,
                        n_re=9, n_im=9)
        sheet = build_sheet(4, grid, ep_finder=lambda m: ep_g(m))
        assert [c.kind for c in sheet.cut_segments] == ["exceptional"]
        cut = sheet.cut_segments[0]
        assert cut.branch_point.imag < 0
        assert cut.im_hi == pytest.approx(cut.branch_point.imag)

    def test_ground_sheet_records_multiple_cuts(self):
        grid = GridSpec(re_min=-3.0, re_max=1.0, im_min=-4.0, im_max=0.5,
                        n_re=9, n_im=9)
        sheet = build_sheet(0, grid, ep_finder=lambda m: ep_g(m))
        kinds = [c.kind for c in sheet.cut_segments]
        assert kinds.count("exceptional") >= 2
        assert kinds.count("real-axis") == 1

    def test_axis_row_matches_real_solver(self):
        grid = GridSpec(re_min=-1.0, re_max=1.0, im_min=-0.5, im_max=0.5,
                        n_re=5, n_im=5)
        sheet = build_sheet(2, grid)
        for j, x in enumerate(sheet.re_axis):
            assert sheet.axis_k[j] == solve_k_real(2, float(x)).k

    def test_unreachable_cells_are_nan_not_wrong(self):
        # the ground sheet continued through a cut column must either
        # abort (NaN) or satisfy the defining equation; spot check
        grid = GridSpec(re_min=-1.5, re_max=0.5, im_min=-2.0, im_max=0.0,
                        n_re=9, n_im=9)
        sheet = build_sheet(0, grid, ep_finder=lambda m: ep_g(m))
        for i in range(grid.n_im):
            for j in range(grid.n_re):
                k = sheet.k[i, j]
                if np.isnan(k.real):
                    continue
                g = complex(sheet.re_axis[j], sheet.im_axis[i])
                if g.imag == 0.0 and abs(g) < 1e-12:
                    continue
                _, scaled, ok = newton_correct(Parity.EVEN, g, k, tol=1e-12)
                assert ok and scaled < 1e-8

    def test_column_rescue_takes_the_sheet_tolerance(self, monkeypatch):
        # the scalar walk that rescues a column corrects to build_sheet's
        # tol, as the array march does
        tols = []
        correct = continuation.newton_correct

        def recorded(*args, **kwargs):
            tols.append(kwargs["tol"])
            return correct(*args, **kwargs)

        monkeypatch.setattr(continuation, "newton_correct", recorded)
        build_sheet(2, GridSpec(-1.1, -1.0, -1.5, 0.5, 3, 41), tol=1e-13)
        assert tols and set(tols) == {1e-13}

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_window_below_the_domain_is_refused(self, n):
        # Im g = -1e300 lies outside the coupling domain: the window is
        # refused before any column is marched, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coupling domain"):
                build_sheet(n, GridSpec(-3.0, 1.0, -1e300, 0.5, 3, 3))

    def test_partner_catalog_stops_left_of_the_window(self):
        # Re g_ep falls monotonically up the ladder, so the bound label's
        # partners end at the first branch point left of re_min, however
        # deep the window; the depth bound alone asks for 5001 labels
        # here, and find_ep walks each one's ladder from the bottom
        points = dict(ladder_points(Parity.EVEN, 800, verify_unique=False))
        asked = []

        def finder(m):
            asked.append(m)
            return points[m].g_ep

        sheet = build_sheet(0, GridSpec(-3.0, 1.0, -1e4, 0.5, 3, 3), ep_finder=finder)
        assert len(asked) <= 400
        assert asked == list(range(2, asked[-1] + 1, 2))
        assert points[asked[-1]].g_ep.real < -3.0 <= points[asked[-2]].g_ep.real
        assert [c.branch_point for c in sheet.cut_segments if c.kind == "exceptional"] \
            == [points[m].g_ep for m in asked[:-1]]

    def test_partner_catalog_skips_a_label_the_finder_misses(self):
        def finder(m):
            if m == 4:
                raise RuntimeError("no catalog entry")
            return ep_g(m)

        grid = GridSpec(-3.0, 1.0, -6.0, 0.5, 3, 3)
        cuts = build_sheet(0, grid, ep_finder=finder).cut_segments
        full = build_sheet(0, grid, ep_finder=ep_g).cut_segments
        assert cuts == [c for c in full if c.branch_point != ep_g(4)]
        assert len(cuts) == len(full) - 1

    def test_column_rescue_near_a_double_root(self, monkeypatch):
        # the column Re g = -1.05 passes 8e-4 from g_ep(2); the array
        # march leaves it behind once, and the scalar walk carries it on
        walks = []
        walk = continuation.walk_path

        def counted(*args, **kwargs):
            walks.append(args[0])
            return walk(*args, **kwargs)

        monkeypatch.setattr(continuation, "walk_path", counted)
        sheet = build_sheet(2, GridSpec(-1.1, -1.0, -1.5, 0.5, 3, 41))
        monkeypatch.undo()
        assert walks and all(a.real == b.real == -1.05 for a, b in walks)
        assert sheet.aborted_columns == {}
        assert not np.isnan(sheet.k).any()
        for i, y in enumerate(sheet.im_axis):
            g = complex(sheet.re_axis[1], y)
            assert abs(sheet.k[i, 1] - sheet_value(2, g)) <= 1e-9
