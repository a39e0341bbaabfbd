"""Gauge connection and parallel transport: closed forms vs oracle vs loops."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lieb2b import bethe, exceptional, holonomy
from lieb2b.bethe import (COUPLING_LIMIT, RESIDUAL_TARGET, Parity, bethe_residual, branch_point_function,
                          real_axis_k, rotated_sqrt, solve_k_real,
                          unscaled_residual_terms)
from lieb2b.continuation import (STEP_GROWTH, ComplexPath, circle_path, continue_to,
                                 line_path, sheet_value, walk_path)
from lieb2b.cycles import ep_chain_path, n_ep_contour
from lieb2b.eigensystem import overlap_connection_oracle
from lieb2b.exceptional import (ExceptionalPointError, circle_reaches_branch_point,
                                family_eps, find_ep)
from lieb2b.holonomy import (MIN_LOOP_RADIUS, ConnectionProximityError,
                             TransportError, TransportFrame, TruncationSpec,
                             TruncationWarning, advance_frame, connection_matrix,
                             d_function, d_function_trig, d_sign, entry_frame, ep_loop_holonomy, frame_at,
                             frame_monodromy, gauge_connection,
                             m_chain_analytic, m_n_analytic, match_frames,
                             transport)

EVEN12 = TruncationSpec(Parity.EVEN, 12)


def bench_loop(n):
    """The benchmark's loop: radius 1e-3, 48 arcs, clockwise about g_ep(n)."""
    return circle_path(find_ep(n, verify_unique=False).g_ep, 1e-3, n_points=48)


@np.errstate(over="ignore", invalid="ignore")
def reference_correct(parity, g, k0, tol, max_iter=5):
    """The array corrector whose damping tests evaluate only the residual,
    so each sweep evaluates the terms at every point again, for points
    with |Im pi k/2| <= DEEP_IM_H: (k, scaled residual, converged, sweeps,
    retries), where retries counts the halved steps tested again."""
    g, k = np.broadcast_arrays(np.asarray(g, dtype=complex), np.asarray(k0, dtype=complex))
    shape, g, k = k.shape, g.ravel(), k.ravel().copy()
    scaled, live, sweeps, retries = np.empty(k.size), np.arange(k.size), 0, 0
    for sweep in range(max_iter + 1):
        r, dr, scale, _ = unscaled_residual_terms(parity, g[live], k[live])
        sweeps += 1
        s = np.where(scale < np.inf, np.abs(r) / scale, np.nan)
        scaled[live] = s
        go = ~(s < tol) & (dr != 0)
        if sweep == max_iter or not go.any():
            break
        live, r, dr = live[go], r[go], dr[go]
        step, damp = r / dr, np.arange(live.size)
        for _ in range(4):
            trial = k[live[damp]] - step[damp]
            damp = damp[~(np.abs(bethe_residual(parity, g[live[damp]], trial))
                          <= np.abs(r[damp]))]
            step[damp] *= 0.5
            if damp.size == 0:
                break
            retries += 1
        k[live] = k[live] - step
    return k.reshape(shape), scaled.reshape(shape), (scaled < tol).reshape(shape), \
        sweeps, retries


def branch_distance(frame):
    """`holonomy._branch_distance` at one frame, as a float."""
    return holonomy._branch_distance([frame.g], frame.k[None]).item()


def counted_runs(monkeypatch):
    """Record every `_advance_run` call as (its points, how many of
    them lead the run safe)."""
    runs = []
    advance = holonomy._advance_run

    def recorded(frame, g_points, tol):
        out = advance(frame, g_points, tol)
        runs.append((list(g_points), len(out[0])))
        return out

    monkeypatch.setattr(holonomy, "_advance_run", recorded)
    return runs


def runs_after_entry(monkeypatch, walker, path, trunc):
    """``walker(path, trunc)``'s result and the `_advance_run` calls it
    made after its entry frame, whose walk takes the same runs alone."""
    runs = counted_runs(monkeypatch)
    entry_frame(trunc, path.waypoints[0])
    entry = len(runs)
    runs.clear()
    res = walker(path, trunc)
    return res, runs[entry:]


def refuse_run(frame, g_points, tol):
    """An `_advance_run` that finds no point of the run safe."""
    return frame.k[None, :0], frame.sqrt_r[None, :0]


def segment_chain(frame, waypoints):
    """The frame carried corner to corner in one-point hops, the walk
    `frame_monodromy` made before its runs spanned several points."""
    def hop(f, ends):
        k, sqrt_r = holonomy._advance_run(f, ends[:1], RESIDUAL_TARGET)
        if not len(k):
            return [(None, False, 0.5)]
        return [(TransportFrame(f.levels, ends[0], k[0], sqrt_r[0]), True, STEP_GROWTH)]

    for g in waypoints[1:]:
        d = abs(g - frame.g)
        frame, reached, _ = walk_path((frame.g, g), frame, hop, h=d, min_step=d * 2.0 ** -48)
        assert reached
    return frame


def stepwise_transport(path, trunc, rtol=holonomy.TRANSPORT_RTOL):
    """Transport in one corrector run per Magnus step, as before runs
    spanned several steps, by the frame walks' step rule: (V, steps,
    rejected, the accepted step ends)."""
    levels, ends, rejected = trunc.levels, [], []

    def hop(state, g_ends):
        frame, v = state
        g = g_ends[0]
        dg = g - frame.g
        points = [frame.g + c * dg for c in holonomy._GAUSS_NODES] + [g]
        k, sqrt_r = holonomy._advance_run(frame, points, min(RESIDUAL_TARGET, rtol))
        if len(k) < 4:
            rejected.append(g)
            return [(None, False, 0.5)]
        run = [TransportFrame(levels, complex(p), ki, si)
               for p, ki, si in zip(points, k, sqrt_r)]
        a_run = connection_matrix(levels, [f.d_values() for f in run], [f.k for f in run])
        (omega6,), (error,) = holonomy._magnus((-1j * dg * a_run[:3])[None])
        scale = holonomy.MAGNUS_ATOL + rtol * max(1.0, float(np.max(np.abs(v))))
        err = float(np.max(np.abs(error @ v))) / scale
        if not err <= 1.0:
            rejected.append(g)
            return [(None, False, max(0.2, 0.9 * err ** -0.2))]
        ends.append(g)
        factor, = holonomy._kept_factor([g], run[-1].k[None], [abs(dg)])
        if err > 0:
            factor = min(factor, max(0.2, 0.9 * err ** -0.2))
        return [((run[-1], holonomy._expm(omega6) @ v), True, factor)]

    w = path.waypoints
    frame0 = entry_frame(trunc, w[0])
    length = sum(abs(b - a) for a, b in zip(w, w[1:]))
    (_, v), reached, _ = walk_path(w, (frame0, np.eye(len(levels), dtype=complex)), hop,
                                   h=branch_distance(frame0), min_step=length * 2.0 ** -48)
    assert reached
    return v, len(ends), len(rejected), ends


def with_step_ends(monkeypatch, walker, path, trunc):
    """``walker(path, trunc)``'s result and the end of every step kept by
    its last walk, the one after its entry walk, in order.  A walk keeps
    the leading tries of each hop, up to the one whose state the next hop
    starts from or the walk returns."""
    walks = []
    walk = holonomy.walk_path

    def watched_walk(waypoints, state, hop, **walk_kwargs):
        hops = []
        walks.append(hops)

        def watched(state, ends):
            tries = hop(state, ends)
            hops.append((state, tries))
            return tries

        out = walk(waypoints, state, watched, **walk_kwargs)
        hops.append((out[0], []))
        return out

    monkeypatch.setattr(holonomy, "walk_path", watched_walk)
    res = walker(path, trunc)
    ends, hops = [], walks[-1]
    for (_, tries), (kept, _) in zip(hops, hops[1:]):
        n = next((i + 1 for i, t in enumerate(tries) if t[0] is kept), 0)
        ends += [t[0] if isinstance(t[0], TransportFrame) else t[0][0] for t in tries[:n]]
    return res, [f.g for f in ends]


def transport_with_step_ends(monkeypatch, path, trunc):
    """`transport`'s result and the end of every step it accepted, in order."""
    res, ends = with_step_ends(monkeypatch, transport, path, trunc)
    assert len(ends) == res.steps
    return res, ends


def entry_with_start(trunc, g0):
    """`entry_frame(trunc, g0)` off the axis, and the real-axis point its
    corridor starts from."""
    starts, walk = [], holonomy.advance_frame

    def recorded(frame, g_target):
        starts.append(frame.g)
        return walk(frame, g_target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holonomy, "advance_frame", recorded)
        frame = entry_frame(trunc, g0)
    (start,) = starts
    return frame, start


def vertical_entry(trunc, g0):
    """The frame continued straight from the real axis at Re g0 to g0:
    the standard-sheet frame whatever corridor reaches it."""
    return advance_frame(frame_at(trunc, g0.real), g0)


def inside_triangle(p, a, b, c):
    """Whether the point p lies in the closed triangle a, b, c."""
    def side(u, v):
        return (np.conj(v - u) * (p - u)).imag
    sides = (side(a, b), side(b, c), side(c, a))
    return min(sides) >= 0.0 or max(sides) <= 0.0


def assert_corridor_is_vertical(trunc, g0):
    """`entry_frame`'s corridor reaches the vertical walk's frame, and no
    branch point of the family lies between the two."""
    frame, x0 = entry_with_start(trunc, g0)
    want = vertical_entry(trunc, g0)
    assert np.all(np.abs(frame.k - want.k) <= 1e-10 * np.abs(want.k)), g0
    assert np.all(np.abs(frame.sqrt_r - want.sqrt_r) <= 1e-10 * np.abs(want.sqrt_r)), g0
    assert np.all((frame.sqrt_r / want.sqrt_r).real > 0.0), g0
    assert x0.imag == 0.0 and -COUPLING_LIMIT <= x0.real <= g0.real
    eps = np.array([ep.g_ep for ep in family_eps(trunc.parity, abs(g0.imag))])
    for p in [*eps, *eps.conj(), trunc.parity.real_branch_point]:
        assert not inside_triangle(p, x0, complex(g0.real), g0), (g0, p)


def distance_to_segment(p, a, b):
    """Distance from the point p to the segment [a, b] of the plane."""
    t = np.clip(((p - a) * np.conj(b - a)).real / abs(b - a) ** 2, 0.0, 1.0)
    return abs(a + t * (b - a) - p)


class TestBranchWindow:
    def test_rotated_window_cuts_along_positive_imaginary_axis(self):
        assert rotated_sqrt(-1.0) == -1j
        assert rotated_sqrt(4.0) == 2.0
        # continuous across the negative real axis ...
        assert abs(rotated_sqrt(-1 + 1e-12j) - rotated_sqrt(-1 - 1e-12j)) < 1e-11
        # ... and cut along the positive imaginary one
        assert abs(rotated_sqrt(-1e-12 + 1j) + rotated_sqrt(1e-12 + 1j)) < 1e-11

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("g", [-1e6, -3.0, -0.5, 1e-6, 0.7, 1e6])
    def test_frame_takes_the_rotated_window_on_every_level(self, parity, g):
        # on the real axis r > 0 for every level n >= 2, where the rotated
        # and principal windows agree; a bound level carries -i sqrt(|r|)
        trunc = TruncationSpec(parity, 10)
        frame = frame_at(trunc, g)
        r = branch_point_function(g, frame.k)
        for n, r_n, s in zip(trunc.levels, r, frame.sqrt_r):
            assert s == rotated_sqrt(r_n)
            if n >= 2:
                assert r_n.real > 0 and r_n.imag == 0 and s == np.sqrt(r_n)
            elif r_n.real < 0:
                assert s == -1j * np.sqrt(-r_n.real)


class TestConnectionForms:
    def test_rational_and_trig_forms_agree_on_axis(self):
        rng = np.random.default_rng(20240817)
        for parity in (Parity.EVEN, Parity.ODD):
            for n in range(parity.bound_level, parity.bound_level + 8, 2):
                for g in rng.uniform(-4.0, 4.0, size=25):
                    if n == 0 and g < 0.05:
                        continue  # bound window uses the rotated root
                    if n == 1 and g < -2.0 / np.pi + 0.05:
                        continue
                    k = solve_k_real(n, float(g)).k
                    a = d_function(n, g, k)
                    b = d_function_trig(n, g, k)
                    assert abs(a - b) < 1e-10

    def test_d_function_at_a_branch_point_is_refused(self):
        # r = 0 at g = 0, k = 0: D was 0/0, a NaN and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="sits at a branch point"):
                d_function(2, 0.0, 0.0)

    def test_sign_convention(self):
        assert [d_sign(n) for n in range(6)] == [1, 1, -1, -1, 1, 1]
        assert d_sign(np.arange(6)).tolist() == [1, 1, -1, -1, 1, 1]

    def test_matches_quadrature_oracle(self):
        for parity in (Parity.EVEN, Parity.ODD):
            trunc = TruncationSpec(parity, 8)
            for g in (0.5, 1.0, 2.0, -0.5):
                closed = gauge_connection(g, trunc)
                oracle = overlap_connection_oracle(8, g, parity=parity)
                assert np.max(np.abs(closed - oracle)) < 1e-6

    def test_diagonal_is_exactly_zero(self):
        a = gauge_connection(1.1, EVEN12)
        assert np.all(np.diag(a) == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(min_value=0.1, max_value=5.0),
           odd=st.booleans())
    def test_hermitian_and_antisymmetric_at_real_coupling(self, g, odd):
        trunc = TruncationSpec(Parity.ODD if odd else Parity.EVEN, 6)
        a = gauge_connection(g, trunc)
        assert np.max(np.abs(a - a.conj().T)) < 1e-12
        assert np.max(np.abs(a + a.T)) < 1e-12

    def test_proximity_error_names_the_pair(self):
        levels = (0, 2)
        with pytest.raises(ConnectionProximityError) as err:
            connection_matrix(levels, [1.0, 1.0], [1.0, 1.0 + 1e-9])
        assert "0" in str(err.value) and "2" in str(err.value)

    def test_stacked_points_equal_per_point_matrices(self):
        trunc = TruncationSpec(Parity.EVEN, 6)
        frames = [advance_frame(frame_at(trunc, 1.0), g)
                  for g in (1.0, 1.0 - 0.3j, 1.2 - 0.7j, 0.8 - 1.0j)]
        stacked = connection_matrix(trunc.levels, [f.d_values() for f in frames],
                                    [f.k for f in frames])
        assert stacked.shape == (4, 6, 6)
        for a, f in zip(stacked, frames):
            assert np.array_equal(a, f.connection())

    def test_stacked_proximity_error_names_the_pair(self):
        levels = (0, 2, 4)
        k = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 2.0 + 1e-9], [1.0, 2.0, 3.0]])
        with pytest.raises(ConnectionProximityError,
                           match=r"levels (2 and 4|4 and 2) are quasi-degenerate"):
            connection_matrix(levels, np.ones_like(k), k)

    def test_proximity_error_names_the_first_closest_pair(self):
        # the gaps over slot pairs name the pair the full gap matrix's first
        # least entry names: point 1 ties pairs (0, 3) and (1, 2), point 2
        # ties them again later
        levels, tiny = (0, 2, 4, 6), 2.0 ** -31
        k = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.0 + tiny, 1.0 + tiny],
                      [1.0, 1.0 + tiny, 3.0, 3.0 + tiny]])
        full = np.abs(k[:, :, None] - k[:, None, :])
        full[:, range(4), range(4)] = np.inf
        *_, i, j = idx = np.unravel_index(np.argmin(full), full.shape)
        assert (levels[i], levels[j]) == (0, 6)
        with pytest.raises(ConnectionProximityError) as err:
            connection_matrix(levels, np.ones_like(k), k)
        assert str(err.value) == (f"levels 0 and 6 are quasi-degenerate "
                                  f"(|k_0 - k_6| = {full[idx]:.3e})")
        assert np.array_equal(holonomy._pair_gaps(k)[0].min(axis=-1), full.min(axis=(1, 2)))

    def test_complex_coupling_needs_sheet_values(self):
        with pytest.raises(ValueError):
            gauge_connection(1.0 - 0.5j, EVEN12)

    @pytest.mark.parametrize("parity, g", [(Parity.EVEN, 0.0), (Parity.ODD, -2 / np.pi)])
    def test_real_branch_point_raises(self, parity, g):
        # k = 0 and r = 0 there: D = k / sqrt(r) is 0/0
        with pytest.raises(ValueError, match="real branch point"):
            gauge_connection(g, TruncationSpec(parity, 4))


class TestFrameAdvance:
    def test_matches_scalar_continuation(self):
        # the frame and each level's own continuation take the same
        # step rule with different hops; they must land on the same roots
        frame = advance_frame(frame_at(TruncationSpec(Parity.EVEN, 6), 1.0),
                              1.0 - 1.0j)
        assert frame.g == 1.0 - 1.0j
        for n, k in zip(frame.levels, frame.k):
            end = continue_to(solve_k_real(n, 1.0), 1.0 - 1.0j)
            assert abs(k - end.k) <= 1e-10

    def test_stall_raises_after_bounded_hops(self, monkeypatch):
        hops = []

        def refuse(frame, g, tol):
            hops.append(g)
            return refuse_run(frame, g, tol)

        monkeypatch.setattr(holonomy, "_advance_run", refuse)
        frame = frame_at(TruncationSpec(Parity.EVEN, 4), 1.0)
        with pytest.raises(TransportError, match="stalled"):
            advance_frame(frame, 1.0 - 1.0j)
        # the first step spans the start's branch distance, 0.354 or
        # about 2**-1.5 of the unit path, not the whole of it; 46
        # halvings then take it below 2**-48 of the path
        assert abs(hops[0][-1] - 1.0) == pytest.approx(branch_distance(frame))
        assert len(hops) == 47

    def test_frame_without_its_base_level_is_refused(self):
        # slots 7 and 9 alone: walked to -1.5 - 20i, slot 7 would land on
        # level 1's value, 6.009 - 0.197i, instead of k_7 = 8.012 - 0.269i
        levels = (7, 9)
        k = real_axis_k(levels, -1.5)
        frame = TransportFrame(levels, -1.5 + 0j, k,
                               rotated_sqrt(branch_point_function(-1.5, k)))
        with pytest.raises(ValueError, match="lowest of their family"):
            advance_frame(frame, -1.5 - 20.0j)

    def test_entry_frames_stay_on_the_standard_sheet(self):
        # a run predicted from its start must not land on a partner
        # branch; the colliding pair sits about 0.05 apart here
        for n in range(2, 10):
            trunc = TruncationSpec(Parity.of_level(n), 12 if n % 2 == 0 else 24)
            g = find_ep(n, verify_unique=False).g_ep + 1e-3
            frame = entry_frame(trunc, g)
            want = np.array([sheet_value(m, g) for m in trunc.levels])
            assert np.all(np.abs(frame.k - want) <= 1e-6 * np.abs(want)), n

    def test_entry_walks_refuse_few_runs(self, monkeypatch):
        # steps no longer than the branch distance of their start; steps
        # that spanned the whole rest of the walk refused 87 runs here
        runs = counted_runs(monkeypatch)
        for n in range(2, 10):
            trunc = TruncationSpec(Parity.of_level(n), 12 if n % 2 == 0 else 24)
            entry_frame(trunc, find_ep(n, verify_unique=False).g_ep + 1e-3)
        # a run lays at most _RUN_STEPS steps, each its three nodes and its
        # end; a refused run is one whose first step is unsafe
        assert all(len(points) <= 32 for points, _ in runs)
        assert sum(safe < 4 for _, safe in runs) <= 4
        # walked straight down from Re g_ep(n), the eight took 119 runs
        assert len(runs) <= 76

    def test_entry_frames_match_scalar_continuation(self):
        # beside these branch points a root at RESIDUAL_TARGET can still be
        # 5e-10 off; continue_to and the frame both end one Newton step
        # past it, so they meet directly
        for n in range(2, 10):
            trunc = TruncationSpec(Parity.of_level(n), 12 if n % 2 == 0 else 24)
            g = find_ep(n, verify_unique=False).g_ep + 1e-3
            frame = entry_frame(trunc, g)
            for m, k in zip(frame.levels, frame.k):
                scalar = continue_to(solve_k_real(m, g.real), g).k
                assert abs(k - scalar) <= 1e-12, (n, m)

    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
    @pytest.mark.parametrize("n", [2, 5])
    def test_walk_aimed_at_a_branch_point_ends(self, monkeypatch, n, offset):
        # from the benchmark loop's start, straight at g_ep(n), 1e-9 short
        # of it, or 1e-9 past it: each distance halving takes at most two
        # runs down to 2**-48 of the path, so the walk ends with a frame
        # or stalls
        trunc = TruncationSpec(Parity.of_level(n), 12)
        g_ep = find_ep(n, verify_unique=False).g_ep
        frame = entry_frame(trunc, g_ep + 1e-3)
        runs = counted_runs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                assert advance_frame(frame, g_ep + offset).g == g_ep + offset
            except TransportError as exc:
                assert "stalled" in str(exc)
        assert len(runs) <= 100

    def test_a_step_that_rounds_to_no_move_grows(self, monkeypatch):
        # a walk that lands within a rounding of a branch point may be
        # told to step less than a spacing of doubles; the walk raises
        # that step to a few spacings, so its end is not its start
        estimate, seen = holonomy._branch_distance, []

        def tiny_at_the_first_end(g, k):
            seen.extend(g)  # one coupling a call: the start, then each end
            return np.array([1e-17]) if len(seen) == 2 else estimate(g, k)

        monkeypatch.setattr(holonomy, "_branch_distance", tiny_at_the_first_end)
        frame = frame_at(TruncationSpec(Parity.EVEN, 4), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert advance_frame(frame, 1.0 - 1.0j).g == 1.0 - 1.0j
        assert 0.0 < abs(seen[2] - seen[1]) <= 8.0 * np.spacing(abs(seen[1]))
        assert len(seen) <= 100

    def test_branch_distance_at_a_branch_point_keeps_the_whole_step(self):
        # slot 0 sits where r = 0: its estimate is 0, so the frame gives
        # none, without a warning
        frame = TransportFrame((0, 2), 0j, np.array([0j, 2.0 + 0j]), np.array([0j, 2.0 + 0j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert branch_distance(frame) == np.inf

    def test_entry_walk_takes_few_runs(self, monkeypatch):
        # the deepest benchmark entry; one-point hops took 65 runs, and
        # the vertical walk 25
        trunc = TruncationSpec(Parity.ODD, 24)
        g = find_ep(9, verify_unique=False).g_ep + 1e-3
        runs = counted_runs(monkeypatch)
        entry_frame(trunc, g)
        assert len(runs) <= 13


class TestEntryCorridor:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_loop_starts_reach_the_vertical_frame(self, n):
        # the start of every loop `ep_loop_holonomy` targets M(n) on, up to
        # half the widest: Re g_ep(n - 2) - Re g_ep(n), or the real branch
        # point's Re in place of g_ep(n - 2) for n < 4
        parity = Parity.of_level(n)
        trunc = TruncationSpec(parity, n // 2 + 2)
        g_ep = find_ep(n, verify_unique=False).g_ep
        left = find_ep(n - 2, verify_unique=False).g_ep.real if n >= 4 \
            else parity.real_branch_point
        for radius in (MIN_LOOP_RADIUS, 1e-3, 0.5 * (left - g_ep.real)):
            assert_corridor_is_vertical(trunc, g_ep + radius)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-4.0, 2.0), y=st.floats(-10.0, 10.0), odd=st.booleans())
    @example(x=1.5, y=3.0, odd=False)  # above the axis, right of g = 0
    @example(x=-0.3, y=-2.5, odd=True)  # below, right of g = -2/pi
    def test_off_axis_starts_reach_the_vertical_frame(self, x, y, odd):
        parity = Parity.ODD if odd else Parity.EVEN
        assume(abs(y) >= 1e-3 and abs(x - parity.real_branch_point) >= 1e-6)
        trunc = TruncationSpec(parity, 8)
        try:
            vertical_entry(trunc, complex(x, y))
        except TransportError:
            assume(False)  # the vertical walk stalls at a branch point
        assert_corridor_is_vertical(trunc, complex(x, y))

    @pytest.mark.parametrize("g0", [1.3, 1.3 + 1e-15j, -2.0 - 0j])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_on_the_axis_no_walk(self, monkeypatch, parity, g0):
        trunc = TruncationSpec(parity, 6)
        runs = counted_runs(monkeypatch)
        frame, axis = entry_frame(trunc, g0), frame_at(trunc, complex(g0).real)
        assert runs == [] and frame.g == axis.g
        assert np.array_equal(frame.k, axis.k) and np.array_equal(frame.sqrt_r, axis.sqrt_r)

    @pytest.mark.parametrize("offset", [0.0, 5e-10, -5e-10])
    @pytest.mark.parametrize("y", [-1.0, 1.0, -5.0])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_above_or_below_the_real_branch_point_is_refused(self, parity, y, offset):
        trunc = TruncationSpec(parity, 4)
        with pytest.raises(ValueError, match="real branch point"):
            entry_frame(trunc, complex(parity.real_branch_point + offset, y))

    @pytest.mark.parametrize("offset", [1.2e-9, 1.9e-9, 3e-9, -1.5e-9])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_just_beside_the_real_branch_point_the_walk_starts(self, parity, offset):
        # a corridor leaning at most half way to the point could start
        # inside frame_at's 1e-9 guard; the vertical walk starts outside it
        trunc = TruncationSpec(parity, 4)
        assert_corridor_is_vertical(trunc, complex(parity.real_branch_point + offset, -1.0))

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_straight_below_a_branch_point_the_corridor_is_vertical(self, n):
        # an exceptional point sits on the vertical segment, so the corridor
        # may not lean; it stalls where the vertical walk stalls
        g_ep = find_ep(n, verify_unique=False).g_ep
        g0 = complex(g_ep.real, g_ep.imag - 0.5)
        trunc = TruncationSpec(Parity.of_level(n), 6)
        with pytest.raises(TransportError, match="stalled") as vertical:
            vertical_entry(trunc, g0)
        with pytest.raises(TransportError, match="stalled") as corridor:
            entry_with_start(trunc, g0)
        assert str(corridor.value) == str(vertical.value)
        assert holonomy._corridor_slope(trunc.parity, g0) == 0.0

    def test_a_failed_ladder_walk_keeps_the_vertical_corridor(self, monkeypatch):
        # with a rung the catalog needs missing, nothing says where the
        # points below it are, so the corridor may not lean
        accept = exceptional._accept_root

        def refuse_6(parity, n, g):
            if n == 6:
                raise ExceptionalPointError("no rung 6")
            return accept(parity, n, g)

        monkeypatch.setattr(exceptional, "_accept_root", refuse_6)
        g0 = find_ep(4, verify_unique=False).g_ep + 1e-3
        trunc = TruncationSpec(Parity.EVEN, 6)
        frame, x0 = entry_with_start(trunc, g0)
        assert x0 == g0.real
        want = vertical_entry(trunc, g0)
        assert np.array_equal(frame.k, want.k) and np.array_equal(frame.sqrt_r, want.sqrt_r)

    @pytest.mark.parametrize("y", [-0.5, 3.0])
    def test_the_corridor_starts_inside_the_domain(self, y):
        # nothing to lean clear of: s = 1/2 would start 1/4 or 3/2 past the edge
        g0 = complex(-COUPLING_LIMIT + 1.0, y)
        assert holonomy._corridor_slope(Parity.EVEN, g0) == 0.5
        assert_corridor_is_vertical(TruncationSpec(Parity.EVEN, 4), g0)


class TestTransport:
    def test_real_axis_transport_is_orthogonal(self):
        v = transport(line_path(0.5, 2.5), TruncationSpec(Parity.EVEN, 8)).matrix
        assert np.max(np.abs(v.imag)) < 1e-7
        assert np.max(np.abs(v @ v.T - np.eye(8))) < 1e-7

    def test_determinant_stays_unimodular(self):
        v = transport(line_path(0.5, 2.5), TruncationSpec(Parity.ODD, 8)).matrix
        assert abs(abs(np.linalg.det(v)) - 1.0) < 1e-6

    def test_closed_loop_off_the_singularities_is_identity(self):
        loop = circle_path(1.5, 0.5, n_points=64)
        v = transport(loop, TruncationSpec(Parity.EVEN, 8)).matrix
        assert np.max(np.abs(v - np.eye(8))) < 1e-8

    def test_retraced_path_cancels(self):
        there = line_path(1.0, 1.0 - 0.8j)
        v = transport(there.joined_with(there.reversed()), EVEN12).matrix
        assert np.max(np.abs(v - np.eye(12))) < 1e-8

    def test_small_truncation_warns_about_tail(self):
        e = find_ep(2, verify_unique=False).g_ep
        loop = circle_path(e, 1e-3, n_points=48)
        with pytest.warns(TruncationWarning) as caught:
            transport(loop, TruncationSpec(Parity.EVEN, 2))
        assert caught[0].filename == __file__  # the caller's line, not the walker's

    def test_tail_warning_covers_every_step_start(self):
        # the top of four levels couples strongly only near g_ep(6): a
        # path that dips there and comes back warns, its ends alone not
        e = find_ep(6, verify_unique=False).g_ep
        trunc = TruncationSpec(Parity.EVEN, 4)
        there = line_path(e + 3.0, e + 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transport(line_path(e + 3.0, e + 2.0), trunc)
        with pytest.warns(TruncationWarning):
            transport(there.joined_with(there.reversed()), trunc)

    @pytest.mark.parametrize("path", [
        ComplexPath([1.0, -0.15 + 0.7j, 0.43 - 0.89j, 1.3 - 0.4j]),
        circle_path(1.5, 0.5, n_points=16),
    ])
    def test_steps_land_on_every_waypoint(self, monkeypatch, path):
        _, ends = transport_with_step_ends(monkeypatch, path, TruncationSpec(Parity.EVEN, 4))
        assert all(w in ends for w in path.waypoints[1:])

    def test_a_run_is_whole_steps_in_one_corrector_call(self, monkeypatch):
        # each step's three Gauss nodes and its end go into one run, in
        # path order, and a run is one call of the array corrector
        calls, runs = [], []
        correct, advance = holonomy.newton_correct_with_step, holonomy._advance_run

        def counted(*args, **kwargs):
            calls.append(args[1])
            return correct(*args, **kwargs)

        def recorded(frame, g_points, tol):
            runs.append((frame.g, np.asarray(g_points)))
            return advance(frame, g_points, tol)

        loop = bench_loop(2)
        monkeypatch.setattr(holonomy, "newton_correct_with_step", counted)
        monkeypatch.setattr(holonomy, "_advance_run", recorded)
        res = transport(loop, EVEN12)
        assert res.steps > 0 and len(calls) == len(runs)
        assert all(np.shape(g) == (len(p), 1) for g, (_, p) in zip(calls, runs))
        for start, points in runs:
            assert len(points) % 4 == 0
            steps = points.reshape(-1, 4)
            starts = np.append(start, steps[:-1, 3])
            nodes = starts[:, None] + np.multiply.outer(steps[:, 3] - starts,
                                                       holonomy._GAUSS_NODES)
            assert np.allclose(steps[:, :3], nodes, rtol=1e-15, atol=0.0)
        assert max(len(p) for _, p in runs) > 4  # some run holds several steps

    def test_refusal_at_a_batch_start_is_one_rejected_step_with_half_the_step(
            self, monkeypatch):
        runs = []
        advance = holonomy._advance_run

        def refuse_first(frame, g_points, tol):
            runs.append((frame.g, g_points[3]))  # the first step's end
            return refuse_run(frame, g_points, tol) if len(runs) == 1 \
                else advance(frame, g_points, tol)

        trunc = TruncationSpec(Parity.EVEN, 6)
        monkeypatch.setattr(holonomy, "_advance_run", refuse_first)
        res = transport(line_path(1.0, 1.0 - 0.8j), trunc)
        (g0, first), (g1, second) = runs[:2]
        assert g0 == g1 == 1.0
        assert abs(abs(second - g1) / abs(first - g0) - 0.5) < 1e-12
        free = transport(line_path(1.0, 1.0 - 0.8j), trunc)
        assert res.rejected == free.rejected + 1
        assert np.max(np.abs(res.matrix - free.matrix)) < 1e-8

    def test_point_refused_mid_batch_ends_the_batch_without_a_rejection(
            self, monkeypatch):
        # an unsafe node of a batch's second step: the first step is
        # kept, and the next run tries the second again from its own
        # start with the same step.  The entry walk's runs, which come
        # first, are left alone
        loop = bench_loop(2)
        free = transport(loop, EVEN12)
        entry_runs = counted_runs(monkeypatch)
        entry_frame(EVEN12, loop.waypoints[0])
        entry = len(entry_runs)
        monkeypatch.undo()
        runs = []
        advance = holonomy._advance_run

        def refuse_mid_batch(frame, g_points, tol):
            runs.append(list(g_points))
            k, sqrt_r = advance(frame, g_points, tol)
            first_long = len(runs) > entry and len(g_points) >= 8 \
                and all(len(p) < 8 for p in runs[entry:-1])
            return (k[:6], sqrt_r[:6]) if first_long else (k, sqrt_r)

        monkeypatch.setattr(holonomy, "_advance_run", refuse_mid_batch)
        res = transport(loop, EVEN12)
        i = next(i for i, p in enumerate(runs) if i >= entry and len(p) >= 8)
        assert runs[i + 1][3] == runs[i][7]
        assert (res.steps, res.rejected) == (free.steps, 0)
        assert np.max(np.abs(res.matrix - free.matrix)) < 1e-8

    def test_refusing_every_run_underflows_the_step(self, monkeypatch):
        trunc = TruncationSpec(Parity.EVEN, 4)
        monkeypatch.setattr(holonomy, "_advance_run", refuse_run)
        with pytest.raises(TransportError, match="step size underflow"):
            transport(line_path(1.0, 1.0 - 0.8j), trunc)

    def test_step_budget_is_enforced(self, monkeypatch):
        trunc = TruncationSpec(Parity.EVEN, 4)
        free = transport(line_path(1.0, 1.0 - 0.8j), trunc)
        assert free.steps + free.rejected > 2
        monkeypatch.setattr(holonomy, "MAGNUS_MAX_STEPS", 2)
        with pytest.raises(TransportError, match="step budget exhausted"):
            transport(line_path(1.0, 1.0 - 0.8j), trunc)

    def test_step_size_carries_over_the_corners_of_a_loop(self):
        # carried over the corners, the step covers about one edge;
        # restarting it at an eighth of every edge costs 144 steps here
        e = find_ep(2, verify_unique=False).g_ep
        hol = transport(circle_path(e, 1e-3, n_points=48, clockwise=True), EVEN12)
        assert hol.steps < 64
        assert hol.rejected == 0
        assert abs(np.linalg.det(hol.matrix) - 1.0) <= 1e-12

    # Where the Magnus error estimate sets the step and a batch predicts a
    # step's roots from an earlier start (the contour's corners), last-bit
    # changes in those roots move the step factor and the later ends by
    # about 2e-11; taken as the difference of the two Omegas' sums, which
    # agree to about 1e-10, the estimate moved them by about 2e-8.  Where
    # corners clip every step (the 48-gon) or no batch spans two steps
    # (the line), the ends are the same doubles.
    @pytest.mark.parametrize("path, trunc, ends_tol", [
        (bench_loop(2), EVEN12, 0.0),
        (line_path(1.0, 1.0 - 0.8j), TruncationSpec(Parity.EVEN, 6), 0.0),
        (n_ep_contour(4.0, 3, Parity.EVEN), EVEN12, 1e-9),
    ], ids=["bench-48-gon", "line", "three-point-contour"])
    def test_batched_steps_equal_the_stepwise_transport(self, monkeypatch, path, trunc,
                                                        ends_tol):
        res, ends = transport_with_step_ends(monkeypatch, path, trunc)
        v, steps, rejected, stepwise_ends = stepwise_transport(path, trunc)
        assert (res.steps, res.rejected) == (steps, rejected)
        assert np.max(np.abs(np.subtract(ends, stepwise_ends))) <= ends_tol
        assert np.max(np.abs(res.matrix - v)) <= 1e-12

    def test_bench_loop_takes_few_runs(self, monkeypatch):
        # one run per Magnus step took 48, one step an edge
        res, runs = runs_after_entry(monkeypatch, transport, bench_loop(2), EVEN12)
        assert (res.steps, res.rejected) == (48, 0)
        assert len(runs) <= -(-48 // holonomy._RUN_STEPS) + 2

    @pytest.mark.parametrize("n", range(2, 10))
    def test_transport_steps_where_the_frame_walk_steps(self, monkeypatch, n):
        # one step rule: on the benchmark's loops, at its truncations,
        # transport keeps the steps of the frame walk around the loop
        trunc = TruncationSpec(Parity.of_level(n), 12 if n % 2 == 0 else 24)
        _, transported = transport_with_step_ends(monkeypatch, bench_loop(n), trunc)
        _, walked = with_step_ends(monkeypatch, frame_monodromy, bench_loop(n), trunc)
        assert transported == walked == bench_loop(n).waypoints[1:]  # an edge a step

    def test_long_path_takes_no_more_runs_than_attempted_steps(self, monkeypatch):
        # steps that no corner clips go one per run; one run per step
        # took 261 here
        res, runs = runs_after_entry(monkeypatch, transport,
                                     n_ep_contour(4.0, 3, Parity.EVEN), EVEN12)
        assert (res.steps, res.rejected) == (263, 1)
        assert len(runs) <= 261

    @pytest.mark.parametrize("rtol", [0.0, -1e-10, np.inf, np.nan])
    def test_rtol_outside_the_open_interval_is_rejected(self, rtol):
        with pytest.raises(ValueError, match="0 < rtol < inf"):
            transport(line_path(1.0, 1.0 - 0.8j), EVEN12, rtol=rtol)


class TestRunWork:
    def test_a_run_evaluates_the_kernel_once_a_sweep(self, monkeypatch):
        # a damping test evaluates every term at its trial, so the point
        # it accepts is not evaluated again, and a run's last Newton step
        # is the corrector's own r/dr; each hop estimates the branch
        # distance at all its step ends in one call
        calls, estimates, hops = [], [], []
        correct, estimate, walk = (holonomy.newton_correct_with_step,
                                   holonomy._branch_distance, holonomy.walk_path)

        def counted(kernel):
            def counted_kernel(*args):
                if calls and calls[-1][4] is None:  # inside a corrector call
                    calls[-1][5] += 1
                return kernel(*args)
            return counted_kernel

        def recorded(parity, g, k0, *, tol):
            calls.append([parity, g, k0, tol, None, 0])
            calls[-1][4] = correct(parity, g, k0, tol=tol)
            return calls[-1][4]

        def counted_estimate(g, k):
            estimates.append(len(g))
            return estimate(g, k)

        def watched_walk(waypoints, state, hop, **walk_kwargs):
            def watched(state, ends):
                before = len(estimates)
                tries = hop(state, ends)
                hops.append((len(estimates) - before, tries[0][1]))
                return tries
            return walk(waypoints, state, watched, **walk_kwargs)

        for name in ("bethe_residual", "residual_terms", "unscaled_residual_terms"):
            monkeypatch.setattr(bethe, name, counted(getattr(bethe, name)))
        monkeypatch.setattr(holonomy, "newton_correct_with_step", recorded)
        monkeypatch.setattr(holonomy, "_branch_distance", counted_estimate)
        monkeypatch.setattr(holonomy, "walk_path", watched_walk)
        loop = bench_loop(2)
        transport(loop, EVEN12)
        frame_monodromy(loop, EVEN12)
        monkeypatch.undo()
        # two entry walks, a transport walk and a frame walk, each with
        # one estimate at its start and at most one in each hop
        assert all(n <= 1 for n, _ in hops) and all(n == 1 for n, kept in hops if kept)
        assert len(estimates) == 4 + sum(n for n, _ in hops)
        assert max(estimates) > 1  # some hop keeps several steps
        for parity, g, k0, tol, (k, scaled, ok, step), evaluations in calls:
            ref_k, ref_scaled, ref_ok, sweeps, retries = reference_correct(parity, g, k0, tol)
            assert np.array_equal(k, ref_k) and np.array_equal(ok, ref_ok)
            assert np.array_equal(scaled, ref_scaled, equal_nan=True)
            assert evaluations <= sweeps + retries
            r, dr, _, _ = unscaled_residual_terms(parity, g, k)
            assert np.array_equal(k - step, k - r / dr)

    def test_the_benchmark_loops_take_pinned_work(self, monkeypatch):
        # the benchmark's loops requests, counted in corrector runs and
        # Magnus steps rather than timed: their entry walks take 144 runs
        # together (238 before entry corridors leant clear of the EPs), and
        # each walk around the 48-gon, transport's and frame_monodromy's,
        # one run per _RUN_STEPS edges
        runs = counted_runs(monkeypatch)
        entries, entry = [], holonomy.entry_frame

        def counted_entry(trunc, g0):
            before = len(runs)
            frame = entry(trunc, g0)
            entries.append(len(runs) - before)
            return frame

        monkeypatch.setattr(holonomy, "entry_frame", counted_entry)
        loop_walks = []
        for n in range(2, 10):
            trunc = TruncationSpec(Parity.of_level(n), 12 if n % 2 == 0 else 24)
            for walker in (transport, frame_monodromy):
                before = len(runs)
                res = walker(bench_loop(n), trunc)
                loop_walks.append(len(runs) - before - entries[-1])
                if walker is transport:
                    assert (res.steps, res.rejected) == (48, 0), n
        assert len(entries) == 16 and sum(entries) == 144
        assert loop_walks == [math.ceil(48 / holonomy._RUN_STEPS)] * 16

    def test_runs_on_a_dense_line_hold_at_most_run_steps(self, monkeypatch):
        # 200 segments from 1 to 1 - 0.8i at truncation 24, each clipping a
        # step: a frame walk offered every segment at once made one run of
        # all 800 points.  Offered _RUN_STEPS ends a hop, the frame walk and
        # transport run at most four points a step, and the walk ends where
        # it did
        trunc = TruncationSpec(Parity.EVEN, 24)
        line = ComplexPath(np.linspace(1.0, 1.0 - 0.8j, 201)).waypoints
        frame = frame_at(trunc, 1.0)
        runs = counted_runs(monkeypatch)
        monkeypatch.setattr(holonomy, "_RUN_STEPS", len(line) - 1)
        whole = holonomy._walk_frame(frame, line)
        assert [len(points) for points, _ in runs] == [800]
        monkeypatch.undo()
        runs = counted_runs(monkeypatch)
        end = holonomy._walk_frame(frame, line)
        walked = len(runs)
        transport(ComplexPath(line), trunc)
        assert 0 < walked < len(runs)
        assert all(len(points) <= 4 * holonomy._RUN_STEPS for points, _ in runs)
        assert np.max(np.abs(end.k - whole.k)) <= 1e-12
        assert np.max(np.abs(end.sqrt_r - whole.sqrt_r)) <= 1e-12


def eig_expm(x):
    """exp(x) through the eigendecomposition of x."""
    w, q = np.linalg.eig(x)
    return q @ np.diag(np.exp(w)) @ np.linalg.inv(q)


def textbook_omegas(b):
    """Omega6 and Omega6 - Omega4 of one step (Blanes, Casas & Ros 2000)
    from B times the step at its three Gauss nodes, b of shape (3, m, m),
    in exact rational arithmetic on the real form [[Re, -Im], [Im, Re]]
    of each complex matrix, rounded to complex at the end."""
    m = b.shape[-1]

    def exact(x):
        return np.vectorize(Fraction, otypes=[object])(
            np.block([[x.real, -x.imag], [x.imag, x.real]]))

    def commutator(x, y):
        return x.dot(y) - y.dot(x)

    def rounded(x):
        x = x.astype(float)
        return x[:m, :m] + 1j * x[m:, :m]

    b1, a1, b3 = (exact(x) for x in b)
    a2 = Fraction(np.sqrt(15.0) / 3.0) * (b3 - b1)
    a3 = Fraction(10, 3) * (b3 - 2 * a1 + b1)
    c1 = commutator(a1, a2)
    c2 = commutator(a1, 2 * a3 + c1) / -60
    omega6 = a1 + a3 / 12 + commutator(-20 * a1 - a3 + c1, a2 + c2) / 240
    omega4 = a1 + a3 / 12 - c1 / 12
    return rounded(omega6), rounded(omega6 - omega4)


class TestMatrixExponential:
    @pytest.mark.parametrize("norm", [0.0, 1e-3, 0.2, 0.25, 1.0, 40.0])
    def test_matches_the_eigendecomposition(self, norm):
        rng = np.random.default_rng(20261018)
        x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        x *= norm / np.linalg.norm(x, 1)
        ref = eig_expm(x)
        assert np.max(np.abs(holonomy._expm(x) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", range(len(holonomy._TAYLOR_NORMS)))
    def test_matches_the_eigendecomposition_beside_each_degree_threshold(self, m):
        # just below the threshold the polynomial has degree m, just above m + 1
        rng = np.random.default_rng(20261021)
        x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        for norm in holonomy._TAYLOR_NORMS[m] * np.array([1.0 - 1e-9, 1.0 + 1e-9]):
            y = x * (norm / np.linalg.norm(x, 1))
            ref = eig_expm(y)
            assert np.max(np.abs(holonomy._expm(y) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_degree_is_the_least_that_meets_the_tail_bound(self):
        def tail(theta, m):
            return theta ** (m + 1) / math.factorial(m + 1)

        for m, theta in enumerate(holonomy._TAYLOR_NORMS):
            for norm, want in ((theta * (1.0 - 1e-9), m), (theta * (1.0 + 1e-9), m + 1)):
                assert holonomy._taylor_degree(norm) == want
                assert tail(norm, want) < holonomy._TAYLOR_TAIL
                assert want == 0 or tail(norm, want - 1) >= holonomy._TAYLOR_TAIL
        # degree 12 covers every scaled norm, and a transport step's Omega,
        # of 1-norm about 0.033, takes degree 8
        assert holonomy._taylor_degree(np.nextafter(0.25, 0.0)) == 12
        assert tail(0.25, 12) < holonomy._TAYLOR_TAIL
        assert holonomy._taylor_degree(0.033) == 8

    def test_stack_equals_each_matrix(self):
        # each matrix of a stack takes its own scaling and degree, so the
        # stack's exponentials are the single matrices' bit for bit, also
        # where the degrees are neither equal nor in order
        rng = np.random.default_rng(20261019)
        norms = np.array([0.033, 0.0, 40.0, 1e-3, 0.2, 1.0, 7.0, 1e-9])
        x = rng.normal(size=(8, 8, 8)) + 1j * rng.normal(size=(8, 8, 8))
        x *= (norms / np.linalg.norm(x, 1, axis=(1, 2)))[:, None, None]
        degrees = holonomy._taylor_degree(norms / 2.0 ** np.maximum(0, np.frexp(4.0 * norms)[1]))
        assert len(set(degrees.tolist())) == 7 and not np.all(np.diff(degrees) <= 0)
        assert np.array_equal(holonomy._expm(x), [holonomy._expm(m) for m in x])


class TestMagnusStep:
    @pytest.mark.parametrize("scale", [1e-3, 0.03, 1.0])
    def test_matches_the_textbook_omegas(self, scale):
        # the error matrix is Omega6 - Omega4 to round-off of its own size;
        # the difference of the two sums in doubles carries the round-off
        # of Omega itself, relatively |Omega| / |Omega6 - Omega4| larger
        rng = np.random.default_rng(20261021)
        b = scale * (rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4)))
        omega, error = holonomy._magnus(b)
        for i in range(2):
            want_omega, want_error = textbook_omegas(b[i])
            assert np.max(np.abs(omega[i] - want_omega)) <= 1e-15 * np.max(np.abs(want_omega))
            assert np.max(np.abs(error[i] - want_error)) <= 2e-15 * np.max(np.abs(want_error))


class TestEpLoops:
    def test_first_collision_block(self):
        res = ep_loop_holonomy(2, EVEN12, 1e-3)
        v = res.holonomy
        assert abs(v.entry(2, 0) - 1.0) < 1e-2
        assert abs(v.entry(0, 2) + 1.0) < 1e-2
        assert abs(v.entry(0, 0)) < 1e-2
        assert abs(v.entry(2, 2)) < 1e-2
        for n in EVEN12.levels[2:]:
            assert abs(v.entry(n, n) - 1.0) < 1e-2

    def test_higher_collision_signs(self):
        v4 = ep_loop_holonomy(4, EVEN12, 1e-3).holonomy
        assert abs(v4.entry(0, 4) - 1.0) < 1e-2
        assert abs(v4.entry(4, 0) + 1.0) < 1e-2
        v6 = ep_loop_holonomy(6, EVEN12, 1e-3).holonomy
        assert abs(v6.entry(0, 6) + 1.0) < 1e-2
        assert abs(v6.entry(6, 0) - 1.0) < 1e-2

    def test_defect_shrinks_with_radius(self):
        coarse = ep_loop_holonomy(2, EVEN12, 1e-3)
        fine = ep_loop_holonomy(2, EVEN12, 1e-4)
        assert fine.defect < coarse.defect
        assert np.max(np.abs(fine.holonomy.matrix
                             - coarse.holonomy.matrix)) < 1e-2

    def test_truncation_convergence(self):
        v12 = ep_loop_holonomy(2, EVEN12, 1e-3).holonomy.matrix
        v16 = ep_loop_holonomy(2, TruncationSpec(Parity.EVEN, 16),
                               1e-3).holonomy.matrix
        assert np.max(np.abs(v16[:12, :12] - v12)) < 1e-3

    def test_monodromy_squared_flips_the_pair(self):
        v = ep_loop_holonomy(2, EVEN12, 1e-3).holonomy.matrix
        w = v @ v
        assert abs(w[0, 0] + 1.0) < 2e-2
        assert abs(w[1, 1] + 1.0) < 2e-2
        assert abs(w[0, 1]) < 2e-2 and abs(w[1, 0]) < 2e-2

    def test_radius_floor_is_enforced(self):
        with pytest.raises(ValueError):
            ep_loop_holonomy(2, EVEN12, MIN_LOOP_RADIUS / 2)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_is_rejected_without_a_warning(self, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="safe floor"):
                ep_loop_holonomy(2, EVEN12, radius)

    def test_level_outside_the_truncation_fails_before_transport(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("transport ran for a level outside the truncation")

        monkeypatch.setattr(holonomy, "transport", refused)
        with pytest.raises(ValueError, match="level 30 is not in this truncation"):
            ep_loop_holonomy(30, EVEN12)

    def test_two_arc_points_are_refused_before_transport(self, monkeypatch):
        # two points make a diameter through the exceptional point itself
        def refused(*args, **kwargs):
            raise AssertionError("transport ran on a path that is not a loop")

        monkeypatch.setattr(holonomy, "transport", refused)
        with pytest.raises(ValueError, match="n_points >= 3"):
            ep_loop_holonomy(2, TruncationSpec(Parity.EVEN, 6), arc_points=2)

    def test_wide_loop_exchanges_the_lower_pair(self):
        # radius 0.3 > Re g_ep(2) - Re g_ep(4) = 0.259: the loop starts
        # right of g_ep(2)'s downward cut and exchanges 2 with 4, not 0 with 4
        trunc = TruncationSpec(Parity.EVEN, 8)
        res = ep_loop_holonomy(4, trunc, 0.3)
        want = np.eye(8, dtype=complex)
        want[1:3, 1:3] = [[0.0, -1.0], [1.0, 0.0]]
        assert np.array_equal(res.holonomy.monodromy, want)
        loop = circle_path(res.ep.g_ep, 0.3, n_points=48)
        assert np.array_equal(frame_monodromy(loop, trunc).matrix, want)
        assert res.defect > 1.0

    def test_odd_family_loop(self):
        odd12 = TruncationSpec(Parity.ODD, 12)
        v = ep_loop_holonomy(3, odd12, 1e-3).holonomy
        assert abs(v.entry(3, 1) - 1.0) < 1e-2
        assert abs(v.entry(1, 3) + 1.0) < 1e-2


class TestGaugeInvariantFigures:
    @settings(max_examples=12, deadline=None)
    @given(log_r=st.floats(min_value=np.log10(MIN_LOOP_RADIUS),
                           max_value=np.log10(3e-2)),
           n=st.integers(min_value=2, max_value=7))
    def test_trace_and_fourth_power_fall_like_radius_squared(self, log_r, n):
        # the raw matrix carries the gauge of the start frame; its trace
        # and the fourth power of V do not, and both approach M(n)'s
        r = 10.0 ** log_r
        trunc = TruncationSpec(Parity.of_level(n), 8)
        hol = ep_loop_holonomy(n, trunc, r).holonomy
        v = hol.matrix
        assert hol.rejected == 0
        assert abs(np.trace(v) - np.trace(m_n_analytic(n, trunc).matrix)) \
            <= 0.2 * r * r + 1e-8
        assert np.linalg.norm(np.linalg.matrix_power(v, 4) - np.eye(8), 2) \
            <= 0.4 * r * r + 2e-8

    @settings(max_examples=16, deadline=None)
    @given(odd=st.booleans(), closed=st.booleans(),
           x=st.floats(min_value=-0.5, max_value=3.0),
           y=st.floats(min_value=-1.0, max_value=1.0),
           u=st.floats(min_value=-0.5, max_value=3.0),
           w=st.floats(min_value=-1.0, max_value=1.0),
           radius=st.floats(min_value=0.05, max_value=0.5))
    def test_determinant_is_one_to_round_off(self, odd, closed, x, y, u, w, radius):
        # A has a zero diagonal, so every step's exponent is traceless
        parity = Parity.ODD if odd else Parity.EVEN
        a = complex(x, y)
        if closed:  # a circle about a with no branch point within 0.1 of it
            assume(not circle_reaches_branch_point(parity, a, radius + 0.1))
            path, start = circle_path(a, radius, n_points=24), a + radius
        else:
            b = complex(u, w)
            assume(abs(b - a) >= 0.05)
            assume(distance_to_segment(parity.real_branch_point, a, b) >= 0.2)
            path, start = line_path(a, b), a
        # the entry frame comes straight down from the real axis
        assume(abs(start.real - parity.real_branch_point) >= 0.2)
        v = transport(path, TruncationSpec(parity, 6)).matrix
        assert abs(np.linalg.det(v) - 1.0) <= 1e-12


class TestFrameMonodromy:
    def test_equals_analytic_monodromy_exactly(self):
        for n, parity in ((2, Parity.EVEN), (4, Parity.EVEN), (3, Parity.ODD)):
            trunc = TruncationSpec(parity, 12)
            e = find_ep(n, verify_unique=False).g_ep
            loop = circle_path(e, 1e-3, n_points=48)
            w = frame_monodromy(loop, trunc).matrix
            assert np.array_equal(w, m_n_analytic(n, trunc).matrix)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transport_reads_the_same_monodromy(self, n):
        trunc = TruncationSpec(Parity.of_level(n), 8)
        loop = circle_path(find_ep(n, verify_unique=False).g_ep, 1e-3, n_points=48)
        assert np.array_equal(transport(loop, trunc).monodromy,
                              frame_monodromy(loop, trunc).matrix)

    def test_loop_that_carries_a_slot_out_of_the_truncation_fails(self):
        # around g_ep(6) slot 0 returns as level 6, which 0, 2, 4 do not hold
        trunc = TruncationSpec(Parity.EVEN, 3)
        loop = circle_path(find_ep(6, verify_unique=False).g_ep, 1e-3, n_points=48)
        for route in (transport, frame_monodromy):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                with pytest.raises(TransportError, match="no standard level nearby"):
                    route(loop, trunc)

    def test_real_branch_point_loop_is_trivial(self):
        for parity in (Parity.EVEN, Parity.ODD):
            trunc = TruncationSpec(parity, 10)
            loop = circle_path(parity.real_branch_point, 0.3, n_points=64)
            w = frame_monodromy(loop, trunc).matrix
            assert np.array_equal(w, np.eye(10))

    def test_open_path_is_rejected(self):
        with pytest.raises(ValueError):
            frame_monodromy(line_path(1.0, 2.0), EVEN12)

    @pytest.mark.parametrize("path", [
        ComplexPath([1.0, -0.15 + 0.7j, 0.43 - 0.89j, 1.3 - 0.4j, 1.0]), bench_loop(2),
    ], ids=["quadrilateral", "bench-48-gon"])
    def test_runs_reach_every_waypoint(self, monkeypatch, path):
        # a run reaches the points of its safe prefix; a walk keeps them
        runs = counted_runs(monkeypatch)
        frame_monodromy(path, EVEN12)
        reached = {g for points, safe in runs for g in points[:safe]}
        assert all(w in reached for w in path.waypoints[1:])

    def test_a_run_cut_after_its_second_step_keeps_both_steps(self, monkeypatch):
        # the first run with three or more safe steps loses every point
        # after its second step's end: the walk keeps two steps, the next
        # run starts at the second end, and the walk ends where a free
        # one does.  On this square, far from any branch point, corners
        # clip every step, so the first run holds all four
        path = ComplexPath([1.0, 1.1, 1.1 - 0.1j, 1.0 - 0.1j, 1.0])
        frame0 = entry_frame(EVEN12, path.waypoints[0])
        free = holonomy._walk_frame(frame0, path.waypoints)
        runs = []
        advance = holonomy._advance_run

        def cut_after_two_steps(frame, g_points, tol):
            k, sqrt_r = advance(frame, g_points, tol)
            first_long = len(k) > 8 and all(safe <= 8 for _, _, safe in runs)
            runs.append((frame.g, list(g_points), len(k)))
            return (k[:8], sqrt_r[:8]) if first_long else (k, sqrt_r)

        monkeypatch.setattr(holonomy, "_advance_run", cut_after_two_steps)
        cut = holonomy._walk_frame(frame0, path.waypoints)
        i = next(i for i, (_, _, safe) in enumerate(runs) if safe > 8)
        assert runs[i + 1][0] == runs[i][1][7]
        assert cut.g == free.g
        assert np.max(np.abs(cut.k - free.k)) <= 1e-12
        assert np.all(np.abs(cut.sqrt_r - free.sqrt_r) < np.abs(cut.sqrt_r + free.sqrt_r))

    @pytest.mark.parametrize("path", [
        bench_loop(2), n_ep_contour(4.0, 3, Parity.EVEN), ep_chain_path((2, 4), 4.0),
    ], ids=["bench-48-gon", "three-point-contour", "ep-chain"])
    def test_walk_equals_the_segment_chain(self, path):
        frame0 = entry_frame(EVEN12, path.waypoints[0])
        walked = holonomy._walk_frame(frame0, path.waypoints)
        chained = segment_chain(frame0, path.waypoints)
        assert np.max(np.abs(walked.k - chained.k)) <= 1e-12
        s, t = walked.sqrt_r, chained.sqrt_r
        assert np.all(np.abs(s - t) < np.abs(s + t))
        (p, f), (q, h) = match_frames(walked, frame0), match_frames(chained, frame0)
        assert np.array_equal(p, q) and np.array_equal(f, h)

    def test_loop_takes_few_runs(self, monkeypatch):
        # one-point hops took one run per edge of the 48-gon
        _, runs = runs_after_entry(monkeypatch, frame_monodromy, bench_loop(2), EVEN12)
        assert len(runs) <= 12

    def test_frame_matching_identity(self):
        frame = frame_at(EVEN12, 1.2)
        perm, factors = match_frames(frame, frame_at(EVEN12, 1.2))
        assert list(perm) == list(range(12))
        assert all(f == 1.0 for f in factors)

    def test_frames_of_different_truncations_are_not_matched(self):
        # a 4-slot frame against a 5-slot reference matched as [0, 1, 2, 3]
        frame = frame_at(TruncationSpec(Parity.EVEN, 4), 1.0)
        with pytest.raises(ValueError, match="built for different truncations"):
            match_frames(frame, frame_at(TruncationSpec(Parity.EVEN, 5), 1.0))


class TestChainClosedForm:
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_chain_equals_ordered_product(self, parity):
        trunc = TruncationSpec(parity, 12)
        for m in range(1, 6):
            explicit = np.eye(12)
            for i in range(1, m + 1):
                explicit = m_n_analytic(parity.bound_level + 2 * i,
                                        trunc).matrix @ explicit
            chained = m_chain_analytic(m, trunc).matrix
            assert np.array_equal(chained, explicit)

    def test_chain_ground_slot_sign(self):
        for m in (1, 2, 3, 4, 5):
            w = m_chain_analytic(m, EVEN12)
            assert w.entry(0, 2 * m) == (-1.0) ** m

    @pytest.mark.parametrize("m", [1.5, 2.0, "2", 0, 12])
    def test_chain_length_must_be_an_integer_that_fits(self, m):
        # 1.5 was a bare TypeError
        with pytest.raises(ValueError, match="chain length must be an integer"):
            m_chain_analytic(m, EVEN12)

    def test_numpy_chain_length_passes(self):
        assert np.array_equal(m_chain_analytic(np.int64(2), EVEN12).matrix,
                              m_chain_analytic(2, EVEN12).matrix)


class TestTruncationSpec:
    @pytest.mark.parametrize("n_levels", [3.5, 4.0, 1])
    def test_size_must_be_an_integer_of_at_least_two(self, n_levels):
        # 3.5 was a TypeError at .levels
        with pytest.raises(ValueError, match="n_levels must be an integer >= 2"):
            TruncationSpec(Parity.EVEN, n_levels)

    @pytest.mark.parametrize("parity", [float("nan"), 0, 1, "EVEN", None])
    def test_parity_must_be_a_parity(self, parity):
        # NaN was taken for the odd family, levels 1, 3, ..., 11
        with pytest.raises(ValueError, match="parity must be a Parity"):
            TruncationSpec(parity, 6)

    def test_numpy_integers_pass(self):
        trunc = TruncationSpec(Parity.EVEN, np.int64(4))
        assert trunc.levels == (0, 2, 4, 6)
        assert trunc.slot(np.int64(4)) == 2

    @pytest.mark.parametrize("trunc", [EVEN12, TruncationSpec(Parity.ODD, 6)])
    @pytest.mark.parametrize("n", [True, False])
    def test_slot_of_a_bool_is_refused(self, trunc, n):
        # True was label 1, slot 0 of an odd truncation, and False label 0
        with pytest.raises(ValueError, match="is not in this truncation"):
            trunc.slot(n)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_slot_of_a_non_integer_label_is_refused(self, n):
        # 2.0 was slot 1.0, and then an IndexError in m_n_analytic
        with pytest.raises(ValueError, match="is not in this truncation"):
            EVEN12.slot(n)
        with pytest.raises(ValueError, match="is not in this truncation"):
            m_n_analytic(n, EVEN12)
