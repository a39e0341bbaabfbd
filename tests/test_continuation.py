"""Analytic continuation off the real axis and sheet construction."""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieb2b.bethe import (DEEP_IM_H, RESIDUAL_ACCEPT, RESIDUAL_TARGET, Parity, SolverError,
                          bethe_residual, residual_k_derivative, residual_scale,
                          scaled_bethe_residual, solve_k_real)
from lieb2b import continuation, exceptional
from lieb2b.continuation import (STEP_GROWTH, ComplexPath,
                                 GridSpec, circle_path,
                                 conjugation_symmetry_check, continue_along,
                                 continue_to, build_sheet, line_path,
                                 newton_correct, newton_correct_array,
                                 sheet_value, tangent_slope, walk_path)
from lieb2b.exceptional import RUNG_DEPTH_MARGIN, ExceptionalPointError, find_ep, ladder_points
from lieb2b.holonomy import TruncationSpec, entry_frame


def ep_g(n):
    return find_ep(n, verify_unique=False).g_ep


def refuse_rung(monkeypatch, rung):
    """Make every ladder walk of `exceptional` fail at the given rung."""
    accept = exceptional._accept_root

    def refused(parity, n, g):
        if n == rung:
            raise ExceptionalPointError(f"no rung {n}")
        return accept(parity, n, g)

    monkeypatch.setattr(exceptional, "_accept_root", refused)


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

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_points=0), "n_points >= 3"),  # was a numpy divide warning
        (dict(n_points=-3), "n_points >= 3"),  # was an IndexError
        (dict(n_points=2), "n_points >= 3"),  # a diameter, not a loop
        (dict(n_points=2.5), "integer n_points"),  # was a silent 4-point path
        (dict(radius=-0.25), "radius > 0"),
        (dict(radius=0.0), "radius > 0"),
        (dict(radius=np.nan), "radius > 0"),
        (dict(radius=np.inf), "radius > 0"),
    ])
    def test_circle_path_refuses_a_shape_that_is_not_a_loop(self, kwargs, match):
        args = dict(center=1.0 + 0.5j, radius=0.25) | kwargs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                circle_path(**args)

    def test_circle_path_takes_numpy_integers(self):
        loop = circle_path(1.0, 0.25, n_points=np.int64(3))
        assert len(loop.waypoints) == 4


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
        direct = continue_to(state, target).k
        dogleg = continue_along(
            state, ComplexPath([1.0, 2.5 - 0.5j, target])).k
        assert abs(direct - dogleg) < 1e-8

    def test_step_halving_does_not_move_endpoint(self):
        state = solve_k_real(0, 1.0)
        coarse = continue_to(state, 1.0 - 2.0j).k
        # 401 waypoints: every hop spans at most one 0.005 piece
        fine = continue_along(state, ComplexPath(np.linspace(1.0, 1.0 - 2.0j, 401))).k
        assert abs(coarse - fine) < 1e-9

    def test_descent_into_lower_half_plane_binds(self):
        assert continue_to(solve_k_real(0, 1.0), 1.0 - 2.0j).k.imag < 0

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

    def test_continuation_returns_the_end_state(self):
        # the state at the path end, labelled by the start's branch
        end = continue_to(solve_k_real(2, 1.0), 1.0 - 1.0j)
        assert (end.n, end.g, end.parity) == (2, 1.0 - 1.0j, Parity.EVEN)
        assert end.scaled_residual() < 1e-10

    def test_continuation_to_its_own_coupling_returns_the_start(self):
        # as sheet_value at a real g returns its anchor; it was a ValueError,
        # "consecutive waypoints must be distinct", from line_path
        start = solve_k_real(2, 1.0)
        assert continue_to(start, 1.0) is start
        assert continue_to(start, 1.0 + 0.0j) is start
        end = continue_to(start, 1.0 - 1.0j)
        assert continue_to(end, end.g) is end

    def test_deep_bound_continuation_reaches_a_root(self):
        # on the bound branch g^2 + k^2 cancels to exactly 0, the arctan
        # pole of dJ/dk; continuation must step on, not divide by zero
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cases = [(0, -400 - 0.5j, sheet_value(0, -400 - 0.5j)),
                     (1, -45 - 0.7j, sheet_value(1, -45 - 0.7j)),
                     (0, -300 - 2j,
                      continue_to(solve_k_real(0, -300.0), -300 - 2j).k)]
        assert caught == []
        for n, g, k in cases:
            assert scaled_bethe_residual(Parity.of_level(n), g, k) <= 1e-10

    def test_deep_strip_reaches_roots(self):
        # below Re g ~ -528 the unscaled n = 0 residual overflows
        # (|Im pi k/2| > 709); the correctors rescale it instead
        g = -553.6 - 0.5j
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            end = continue_to(solve_k_real(0, g.real), g)
            k = sheet_value(0, g)
            sheet = build_sheet(0, GridSpec(-560, -550, -1, 0.5, 201, 201))
        assert caught == []
        for k_end in (end.k, k):
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

    @settings(max_examples=200, deadline=None)
    @example(n=0, re=0.0, im=-1.0)  # starts on the real branch point
    @example(n=1, re=-2.0 / np.pi, im=-1.0)
    @example(n=0, re=5e-324, im=-1.0)  # a first step of RHO d = 0 divided by zero
    @given(n=st.integers(min_value=0, max_value=9),
           re=st.floats(min_value=-8.0, max_value=2.0),
           im=st.floats(min_value=-6.0, max_value=0.0, exclude_max=True))
    def test_continuation_ends_in_a_root_or_a_solver_error(self, n, re, im):
        # the two outcomes of a one-root walk; Im g = 0 is left out, as a
        # path from the anchor to itself is refused as a zero-length segment
        g = complex(re, im)
        start = solve_k_real(n, re)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                end = continue_to(start, g)
            except SolverError as stall:
                assert cmath.isfinite(stall.g) and cmath.isfinite(stall.k)
                return
        assert end.g == g
        assert end.scaled_residual() <= RESIDUAL_ACCEPT

    def test_branch_point_abort_names_the_branch_point(self):
        g_ep = ep_g(2)
        with pytest.raises(SolverError, match="step underflow near a branch point") as stall:
            continue_to(solve_k_real(2, g_ep.real), g_ep)
        # the last accepted root, short of the branch point
        assert g_ep.real == stall.value.g.real and 0 < abs(stall.value.g - g_ep) < 1e-6
        assert cmath.isfinite(stall.value.k)
        with pytest.raises(SolverError, match="branch point"):
            sheet_value(2, g_ep)


def capped_sheet_value(n, g):
    """k_n(g) by a reference vertical walk that knows no branch points:
    hops of at most 0.05, grown by STEP_GROWTH up to that cap after a
    kept hop and halved after a refused one, each predicted by the
    tangent, corrected by `newton_correct` and kept by `_accepted`."""
    parity = Parity.of_level(n)

    def hop(state, ends):
        (g0, k0), g1 = state, ends[0]
        k, scaled, converged = newton_correct(
            parity, g1, k0 + (g1 - g0) * tangent_slope(g0, k0), tol=RESIDUAL_TARGET)
        ok = continuation._accepted(g1, k, scaled, converged)
        return [((g1, k), ok, min(STEP_GROWTH, 0.05 / abs(g1 - g0)) if ok else 0.5)]

    start = complex(g.real)
    (_, k), reached, _ = walk_path((start, g), (start, solve_k_real(n, g.real).k), hop,
                                   h=0.05, min_step=1e-9)
    assert reached, (n, g)
    return k


def assert_cells_walked(sheet, n, count):
    """count finite cells of the sheet, drawn with a fixed seed, hold
    `sheet_value` to 1e-10 relative."""
    cells = np.argwhere(~np.isnan(sheet.k.real))
    for i, j in cells[np.random.default_rng(5).permutation(len(cells))[:count]]:
        want = sheet_value(n, complex(sheet.re_axis[j], sheet.im_axis[i]))
        assert abs(sheet.k[i, j] - want) <= 1e-10 * abs(want), (i, j)


def counted(monkeypatch, name):
    """Record the arguments of every call of continuation.<name>."""
    calls, function = [], getattr(continuation, name)

    def record(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(continuation, name, record)
    return calls


class TestOneRootStepRule:
    def test_matches_the_capped_walk_over_a_window(self):
        # labels 0-11 over [-8, 3] x [-40, -0.1]
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(0, 12))
            g = complex(rng.uniform(-8.0, 3.0), rng.uniform(-40.0, -0.1))
            want = capped_sheet_value(n, g)
            assert abs(sheet_value(n, g) - want) <= 1e-8 * abs(want), (n, g)

    def test_matches_the_capped_walk_beside_another_labels_point(self):
        # a column 1e-4 to 1e-2 beside g_ep(m), m = n +- 2, ending 2 below
        # it: k_n has no branch point there, so its steps stay long, while
        # the roots of m and the base label meet nearby
        rng = np.random.default_rng(7)
        for _ in range(8):
            n = int(rng.integers(2, 12))
            m = n + 2 if n < 4 or rng.uniform() < 0.5 else n - 2
            e = ep_g(m)
            offset = 10.0 ** rng.uniform(-4.0, -2.0) * rng.choice([-1.0, 1.0])
            g = complex(e.real + offset, e.imag - 2.0)
            want = capped_sheet_value(n, g)
            assert abs(sheet_value(n, g) - want) <= 1e-8 * abs(want), (n, m, offset)

    @pytest.mark.parametrize("depth", [1e5, 1e6])
    def test_excited_label_reaches_the_domain_edge_in_few_hops(self, monkeypatch, depth):
        hops = counted(monkeypatch, "newton_correct")
        g = complex(-1.0, -depth)
        k = sheet_value(2, g)
        assert len(hops) < 100
        assert scaled_bethe_residual(Parity.EVEN, g, k) <= 1e-10

    def test_mirror_check_solves_one_anchor_and_one_point_set(self, monkeypatch):
        anchors = counted(monkeypatch, "solve_k_real")
        ladders = counted(monkeypatch, "family_eps")
        finds = counted(monkeypatch, "find_ep")
        assert conjugation_symmetry_check(0, -1.0 - 2.0j) == -1
        assert (len(anchors), len(ladders), len(finds)) == (1, 1, 0)
        assert conjugation_symmetry_check(2, -1.0 - 2.0j) in (+1, -1)
        assert (len(anchors), len(ladders), len(finds)) == (2, 1, 1)

    @pytest.mark.xfail(strict=True, raises=SolverError,
                       reason="ROADMAP Known defects: a one-root walk anchored "
                       "inside the branch-point guard cannot make its first hop")
    def test_walk_anchored_inside_the_guard_leaves_it(self):
        # the label-1 anchor 1e-5 right of the real branch point -2/pi lies
        # inside _accepted's guard, and every first hop of at most RHO
        # times its distance to -2/pi stays inside it, so the walk
        # underflows; the column is regular below the axis, and its value
        # lies close to that of the column 2e-5 further right
        g = complex(-2.0 / np.pi + 1e-5, -1.0)
        k = sheet_value(1, g)
        assert scaled_bethe_residual(Parity.ODD, g, k) <= 1e-10
        assert abs(k - sheet_value(1, g + 2e-5)) <= 1e-4

    def test_shallow_walk_at_a_large_label_walks_no_ladder(self, monkeypatch):
        # shallower than n - 2 the walk steps by the floor n - 1 +
        # RUNG_DEPTH_MARGIN; from n - 2 down it looks g_ep(n) up
        finds = counted(monkeypatch, "find_ep")
        for n in (10 ** 3, 10 ** 4):
            k = sheet_value(n, -1.0 - 1.0j)
            assert scaled_bethe_residual(Parity.of_level(n), -1.0 - 1.0j, k) <= 1e-10
        sheet_value(5, -1.0 - 2.9j)
        assert finds == []
        sheet_value(5, -1.0 - 3.0j)
        assert finds == [(5,)]

    @pytest.mark.parametrize("parity", list(Parity))
    def test_every_rung_lies_below_the_depth_floor(self, parity):
        # the floor of the unlisted branch points: |Im g_ep(m)| - (m - 1)
        # is 0.311 at m = 2 and 0.368 at m = 3, and rises towards 0.5 up
        # the ladder (0.49997 at m = 40000)
        gaps = [-p.g_ep.imag - (m - 1)
                for m, p in ladder_points(parity, 2401, verify_unique=False)]
        assert len(gaps) == 1200
        assert min(gaps) >= RUNG_DEPTH_MARGIN
        assert max(gaps) < 0.5

    def test_walks_end_on_the_residual_target(self):
        # beside the deep branch points a hop keeps a root below
        # RESIDUAL_ACCEPT; the end is corrected on past RESIDUAL_TARGET
        for n in (8, 9):
            g = ep_g(n) + 1e-3
            for m in (Parity.of_level(n).bound_level, n):
                end = continue_to(solve_k_real(m, g.real), g)
                assert scaled_bethe_residual(Parity.of_level(n), g, end.k) < RESIDUAL_TARGET

    def test_continuation_leaves_a_real_branch_point_it_is_not_at(self):
        # label 2 is regular at g = 0, the even family's real branch
        # point; label 0 sits on it (k = 0) and cannot leave
        assert abs(continue_to(solve_k_real(2, 0.0), -1.0j).k - sheet_value(2, -1.0j)) <= 1e-12
        with pytest.raises(SolverError, match="starts on a branch point") as stuck:
            continue_to(solve_k_real(0, 0.0), -1.0j)
        assert (stuck.value.g, stuck.value.k) == (0.0, 0.0)

    def test_path_through_a_listed_point_where_the_root_is_regular(self, monkeypatch):
        # the even catalog lists g = 0, where only the roots +-0 of the
        # base label meet; label 2 (k = 2 there) crosses it in hops that
        # do not shrink towards it (40 hops of at most 0.05 at a fixed cap)
        hops = counted(monkeypatch, "newton_correct")
        end = continue_to(solve_k_real(2, 1.0), -1.0)
        assert len(hops) <= 10
        assert abs(end.k - solve_k_real(2, -1.0).k) <= 1e-12

    def test_a_rung_the_catalog_needs_but_misses_is_an_error(self, monkeypatch):
        # no floor bounds the branch points below a failed rung, so a walk
        # that needs it raises instead of stepping by a bound it passed
        shallow = sheet_value(0, -1.0 - 2.0j)
        refuse_rung(monkeypatch, 6)
        assert sheet_value(0, -1.0 - 2.0j) == shallow
        with pytest.raises(ExceptionalPointError, match="no rung 6"):
            sheet_value(0, -1.0 - 10.0j)
        with pytest.raises(ExceptionalPointError, match="no rung 6"):
            continue_to(solve_k_real(2, -1.0), -1.0 - 10.0j)


def binary(ok):
    """A hop result with the scalar hops' step factors."""
    return ok, 1.7 if ok else 0.5


class TestWalkSegment:
    def test_step_rule(self):
        # hops longer than 0.3 are refused: 1 and 0.5 are, 0.25 is taken,
        # then each step grows by 1.7 and halves when refused
        steps = []

        def hop(state, ends):
            g = ends[0]
            steps.append(abs(g - state))
            return [(g, *binary(steps[-1] <= 0.3))]

        g_b = 0.1 - 0.7j
        end, reached, refused = walk_path([1.0, g_b], 1.0 + 0j, hop, h=1.0, min_step=1e-3)
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

        def hop(state, ends):  # a kept step keeps its length
            hops.append(ends[0])
            return [(ends[0], True, 1.0)]

        end, reached, _ = walk_path([g_a, g_b], g_a, hop, h=length / 3, min_step=1e-9)
        assert reached and end == g_b and hops[-1] == g_b and len(hops) == 3

    def test_stall_returns_last_accepted_state(self):
        hops = []

        def hop(state, ends):  # kept steps grow to at most 0.2
            g = ends[0]
            hops.append(g)
            ok = g.imag > -0.5
            return [(g, ok, min(1.7, 0.2 / abs(g - state)) if ok else 0.5)]

        end, reached, refused = walk_path([0.0, -1.0j], 0j, hop, h=0.2, min_step=1e-6)
        assert not reached and -0.5 < end.imag <= -0.5 + 2e-6
        assert refused == hops[-1] and refused.imag <= -0.5  # the refused try
        # from 0.2, halving 18 times falls below 1e-6
        assert len(hops) < 100

    def test_zero_length_segment(self):
        assert walk_path([1.0, 1.0], "state", None, h=0.1, min_step=1e-9) == ("state", True, None)

    def test_step_carries_over_corners(self):
        # doubling steps: the hop clipped at the first corner (0.3) goes
        # on, doubled, into the second segment instead of restarting
        steps = []

        def hop(state, ends):
            g = ends[0]
            steps.append(abs(g - state))
            return [(g, True, 2.0)]

        end, reached, _ = walk_path([0.0, 1.0, 1.0 + 4.0j], 0j, hop, h=0.1, min_step=1e-9)
        assert reached and end == 1.0 + 4.0j
        assert steps == pytest.approx([0.1, 0.2, 0.4, 0.3, 0.6, 1.2, 2.2])

    def test_stalls_where_a_step_cannot_move_g(self):
        # at |g| = 1e10 doubles are 1.9e-6 apart, far above min_step; a
        # hop accepting only tries that leave g where it is must stall
        # once the step is a few spacings, not halve on towards min_step
        g_a = 1e10 + 0j
        hops = []

        def hop(state, ends):
            g = ends[0]
            hops.append(g)
            return [(g, *binary(g == state))]

        end, reached, refused = walk_path([g_a, g_a + 1.0], g_a, hop, h=0.5, min_step=1e-12)
        assert not reached and end == g_a and refused == hops[-1] != g_a
        assert len(hops) < 25

    def test_a_tiny_kept_factor_offers_no_step_of_length_zero(self):
        # the first try is kept with factor 1e-300 and every later one
        # grows by 1.7: a step of 5e-301 at g = 1.5 would end where it
        # starts.  The hop raises after 200 calls so the walk cannot hang
        offered = []

        def hop(state, ends):
            if len(offered) == 200:
                raise RuntimeError("the walk did not end")
            offered.append((state, ends[0]))
            return [(ends[0], True, 1e-300 if len(offered) == 1 else 1.7)]

        end, reached, _ = walk_path([1.0, 2.0], 1.0, hop, h=0.5, min_step=1e-12)
        assert reached and end == 2.0
        assert all(g != state for state, g in offered)
        assert len(offered) < 100

    @pytest.mark.parametrize("lookahead", [2, 5])
    def test_lookahead_takes_the_steps_of_one_end_at_a_time(self, lookahead):
        # state: the ends accepted so far; steps longer than 0.15 are
        # refused, and the factor depends on where a step ends.  A hop
        # given several ends tries them in order and stops before the
        # first it refuses, unless that is the first
        def factor(g):
            return 1.2 + 0.8 * abs(np.sin(7.0 * g.real))

        calls = []

        def hop(state, ends):
            calls.append(ends)
            tries = []
            for g in ends:
                here = tries[-1][0] if tries else state
                if abs(g - here[-1]) > 0.15:
                    break
                tries.append((here + (g,), True, factor(g)))
            return tries or [(None, False, 0.5)]

        def walk(n):
            calls.clear()
            loop = circle_path(0.5 - 0.5j, 0.4, n_points=12).waypoints
            end, reached, _ = walk_path(loop, (loop[0],), hop, h=0.05, min_step=1e-9,
                                        lookahead=n)
            assert reached
            return end, len(calls)

        (one, one_calls), (many, many_calls) = walk(1), walk(lookahead)
        assert many == one  # the same ends, bit for bit
        assert many_calls < one_calls

    def test_a_factor_that_moves_the_next_end_drops_the_tries_after_it(self):
        calls = []

        def hop(state, ends):
            calls.append(list(ends))
            return [(g, True, 0.05 if len(calls) == 1 else 4.0) for g in ends]

        walk_path([0.0, 1.0, 2.0, 3.0], 0.0, hop, h=0.9, min_step=1e-9, lookahead=3)
        # 0.9 and the corner its grown step reaches; the next end, 0.4
        # into the second segment, is clipped by nothing and not offered
        assert calls[0] == [0.9, 1.0]
        # a factor of 0.05 takes the walk to 0.945, not to the corner
        assert calls[1][0] == pytest.approx(0.945, abs=1e-15)


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
        # axis the way _march_rows does and then perturbed
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
        once = continue_along(state, loop).k
        assert abs(once - k2) < 1e-6
        assert abs(once - k0) > 0.1

    def test_double_loop_returns_to_start(self):
        e = ep_g(2)
        start_g = e + 0.05
        state = continue_to(solve_k_real(0, e.real + 0.05), start_g)
        loop = circle_path(e, 0.05, n_points=96)
        twice = continue_along(state, loop.joined_with(loop)).k
        assert abs(twice - state.k) < 1e-6

    def test_loop_away_from_branch_points_is_trivial(self):
        loop = circle_path(1.0, 0.4, n_points=48)
        state = solve_k_real(2, 1.4)
        around = continue_along(state, loop).k
        assert abs(around - state.k) < 1e-9


class TestSheets:
    def test_grid_must_straddle_real_axis(self):
        with pytest.raises(ValueError):
            GridSpec(im_min=0.5, im_max=2.0)

    @pytest.mark.parametrize("size", [dict(n_re=2.5), dict(n_im=3.0), dict(n_re=1)])
    def test_grid_needs_integer_sizes_of_at_least_two(self, size):
        # n_re = 2.5 was a TypeError from np.linspace
        with pytest.raises(ValueError, match="integer of at least 2 points"):
            GridSpec(**size)
        assert GridSpec(n_re=np.int64(3), n_im=np.int64(2)).re_axis.size == 3

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

    def test_column_through_a_branch_point_aborts(self):
        # column 1 runs straight down through g_ep(2): it aborts at the
        # first row below the branch point, is NaN from there down, and
        # every cell above it, and every other cell, is the walked value
        e = ep_g(2)
        sheet = build_sheet(2, GridSpec(e.real - 0.1, e.real + 0.1,
                                        e.imag - 0.5, 0.5, 3, 201))
        below = sheet.im_axis < e.imag
        assert sheet.aborted_columns == {1: sheet.im_axis[below].max()}
        assert np.array_equal(np.isnan(sheet.k.real),
                              below[:, None] & (np.arange(3) == 1))
        assert below.sum() == 44
        for (i, j), k in np.ndenumerate(sheet.k):
            if not np.isnan(k.real):
                want = sheet_value(2, complex(sheet.re_axis[j], sheet.im_axis[i]))
                assert abs(k - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("n, grid", [
        # the lower half longer and no zero row, as in the deep strips
        (0, GridSpec(-3.0, 1.0, -1.0, 0.5, 9, 21)),
        (1, GridSpec(-3.0, 1.0, -1.0, 0.5, 9, 21)),
        # the upper half longer
        (0, GridSpec(-3.0, 1.0, -0.5, 5.0, 9, 23)),
        (2, GridSpec(-3.0, 1.0, -0.5, 5.0, 9, 23)),
        # one half empty
        (0, GridSpec(-3.0, 1.0, 0.0, 2.0, 9, 9)),
        (1, GridSpec(-3.0, 1.0, -2.0, 0.0, 9, 9))])
    def test_halves_of_unequal_depth(self, n, grid):
        # both halves walk their rows together and each leaves after its
        # last row; only the even bound label's anchor at g = 0 (column 6)
        # is degenerate, and its column is NaN from the axis out
        sheet = build_sheet(n, grid)
        dead = 6 if n == 0 else None
        assert sheet.aborted_columns == ({} if dead is None else {dead: 0.0})
        assert np.array_equal(np.isnan(sheet.k.real),
                              np.broadcast_to(np.arange(grid.n_re) == dead, sheet.k.shape))
        assert_cells_walked(sheet, n, 12)

    def test_column_through_a_branch_point_and_its_mirror_aborts(self):
        # column 1 runs up through conj(g_ep(2)) and down through g_ep(2),
        # in a window deeper above the axis than below: it aborts in
        # both halves, and records the upper half's ordinate
        e = ep_g(2)
        sheet = build_sheet(2, GridSpec(e.real - 0.1, e.real + 0.1,
                                        e.imag - 0.5, 3.0, 3, 301))
        ims = sheet.im_axis
        assert ((ims < 0).sum(), (ims > 0).sum()) == (113, 188)
        assert sheet.aborted_columns == {1: ims[ims > -e.imag].min()}
        beyond = (ims < e.imag) | (ims > -e.imag)
        assert np.array_equal(np.isnan(sheet.k.real), beyond[:, None] & (np.arange(3) == 1))
        assert (beyond & (ims < 0)).sum() == 32 and (beyond & (ims > 0)).sum() == 106
        assert_cells_walked(sheet, 2, 12)

    def test_upper_half_mirror_cut(self):
        # conj(g_ep(2)) lies inside the window, so its cut runs from it
        # up to the window's top
        e = ep_g(2)
        cuts = build_sheet(2, GridSpec(-3.0, 1.0, -2.0, 2.0, 5, 5)).cut_segments
        assert [(c.branch_point, c.im_lo, c.im_hi) for c in cuts] \
            == [(e, -2.0, e.imag), (e.conjugate(), -e.imag, 2.0)]

    @pytest.mark.xfail(strict=True, reason="ROADMAP Known defects: coarse sheet rows "
                       "land on a partner branch")
    def test_coarse_rows_keep_the_branch(self):
        # rows 0.51 apart, farther than the root's basin: in column Re g = -1.5,
        # from just below g_ep(7) = -1.503 - 6.435i down to Im g = -20,
        # the array march lands on roots near 6.01 - 0.20i where the
        # scalar walk finds 8.01 - 0.27i; both are roots, so no residual
        # check sees it
        sheet = build_sheet(7, GridSpec(-3.0, 1.0, -20.0, 0.5, 41, 41))
        column = sheet.re_axis[15] + 1j * sheet.im_axis
        walked = [sheet_value(7, g) for g in column]
        np.testing.assert_allclose(sheet.k[:, 15], walked, rtol=1e-8, atol=0)

    def test_row_walk_takes_the_sheet_tolerance(self, monkeypatch):
        # every hop of the row walk, split rows included, corrects to
        # build_sheet's tol; both halves walk their rows together, so
        # the 30 row depths below the axis (10 above) take 30 calls and
        # the split row near g_ep(2) the calls beyond them
        tols = []
        correct = continuation.newton_correct_array

        def recorded(*args, **kwargs):
            tols.append(kwargs["tol"])
            return correct(*args, **kwargs)

        monkeypatch.setattr(continuation, "newton_correct_array", recorded)
        build_sheet(2, GridSpec(-1.1, -1.0, -1.5, 0.5, 3, 41), tol=1e-13)
        assert len(tols) > 30 and set(tols) == {1e-13}

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

    def test_default_catalog_stops_left_of_the_window(self, monkeypatch):
        # the default reads one ladder walk and leaves it at the first
        # branch point left of re_min (label 728), not at the depth bound
        # 1e6, which lies some 5e5 rungs up
        walk, taken = continuation.family_eps, []

        def counted_rungs(*args):
            for point in walk(*args):
                taken.append(point)
                yield point

        monkeypatch.setattr(continuation, "family_eps", counted_rungs)
        sheet = build_sheet(0, GridSpec(-3.0, 1.0, -1e6, 0.5, 3, 3))
        assert len(taken) == 364
        assert taken[-1].g_ep.real < -3.0 <= taken[-2].g_ep.real
        assert [c.branch_point for c in sheet.cut_segments if c.kind == "exceptional"] \
            == [p.g_ep for p in taken[:-1]]

    @pytest.mark.parametrize("n", [0, 4])
    def test_a_label_the_finder_misses_is_an_error(self, n):
        # a missing catalog entry is not a sheet short of one cut
        def finder(m):
            if m == 4:
                raise RuntimeError("no catalog entry")
            return ep_g(m)

        with pytest.raises(RuntimeError, match="no catalog entry"):
            build_sheet(n, GridSpec(-3.0, 1.0, -6.0, 0.5, 3, 3), ep_finder=finder)

    @pytest.mark.parametrize("n", [0, 6])
    def test_a_rung_the_cuts_need_but_miss_is_an_error(self, monkeypatch, n):
        # the window reaches |Im g| = 6: the bound label's walk meets rung
        # 6 (about 5.4 deep) and label 6 looks its own point up
        refuse_rung(monkeypatch, 6)
        build_sheet(2, GridSpec(-3.0, 1.0, -6.0, 0.5, 3, 3))
        with pytest.raises(ExceptionalPointError, match="no rung 6"):
            build_sheet(n, GridSpec(-3.0, 1.0, -6.0, 0.5, 3, 3))

    @pytest.mark.parametrize("n, grid, exceptional", [
        (n, GridSpec(n_re=5, n_im=5), 4 if n < 2 else 2 if n < 6 else 0) for n in range(8)]
        + [(0, GridSpec(-5.0, 1.0, -1000.0, 0.5, 3, 3), 500),
           # reaching higher above the axis than below: the mirrors of
           # g_ep(2), ..., g_ep(10) up to Im g = 10
           (0, GridSpec(-3.0, 1.0, -1.0, 10.0, 3, 3), 5)])
    def test_default_cuts_match_the_per_label_finder(self, monkeypatch, n, grid, exceptional):
        # the default takes its cuts from one ladder walk, and a finder
        # asked label by label gives the same cuts; find_ep(m) walks the
        # same ladder to m, so the finder reads m's rung from one walk
        rungs = dict(ladder_points(Parity.of_level(n), 1003, verify_unique=False))
        ladders = counted(monkeypatch, "family_eps")
        cuts = build_sheet(n, grid).cut_segments
        assert len(ladders) == (n < 2)
        assert cuts == build_sheet(n, grid, ep_finder=lambda m: rungs[m].g_ep).cut_segments
        assert sum(c.kind == "exceptional" for c in cuts) == exceptional

    def test_row_walk_near_a_double_root(self, monkeypatch):
        # the column Re g = -1.05 passes 8e-4 from g_ep(2); the row walk
        # refuses the whole row step there once and carries every column
        # through the split row.  The 10 row depths above the axis pair
        # with the first 10 below it in one call of both halves' 3
        # columns; the lower half's other 20 rows, the split one
        # included, go alone
        hops = []
        correct = continuation.newton_correct_array

        def counted(parity, g, k0, **kwargs):
            hops.append(np.shape(g))
            return correct(parity, g, k0, **kwargs)

        monkeypatch.setattr(continuation, "newton_correct_array", counted)
        sheet = build_sheet(2, GridSpec(-1.1, -1.0, -1.5, 0.5, 3, 41))
        monkeypatch.undo()
        assert hops[:10] == [(6,)] * 10
        assert len(hops[10:]) > 20 and set(hops[10:]) == {(3,)}
        assert sheet.aborted_columns == {}
        assert not np.isnan(sheet.k).any()
        for i, y in enumerate(sheet.im_axis):
            g = complex(sheet.re_axis[1], y)
            assert abs(sheet.k[i, 1] - sheet_value(2, g)) <= 1e-9
