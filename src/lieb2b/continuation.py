"""
Analytic continuation of quasi-momentum branches over complex coupling.

A branch k_n(g) continues off the real axis as the root of the
pole-free Bethe residual that stays connected to its real-axis value.
Each hop uses a first-order predictor, the tangent of `root_geometry`

    k -> k + dg * G(g, k),    G = -dJ/dg / dJ/dk = 2 k / (pi r),
    r(g, k) = k^2 + g^2 + 2 g / pi,

followed by damped Newton correction at the new coupling, by the
correctors of `lieb2b.bethe` (the only module that evaluates the
residual kernel).  r -> 0 is exactly dJ/dk = 0, i.e. a branch point
where two branches collide and the local behaviour turns into a square
root with coefficient

    G2 = -2 (dJ/dg) / (d^2J/dk^2) = -(g^2 + k^2) / g,

equal to 2/pi wherever r = 0.  One walker, `walk_path`, carries a root
along a path, the rows of both half-sheets at once from the row depth
before them, and (in `holonomy`) a transport frame and transport's
Magnus steps, both of which take several of its step ends in one hop.

One-root and sheet-row hops keep a root by one test, `_accepted`: its
scaled residual passes, and the corrector moved it from its predicted
point by at most CORRECTOR_REACH / gamma, with gamma Smale's gamma of
the residual at the root: that close, the predicted point lies deep
inside the root's Newton basin, so the corrector did not jump to
another root.  Each hop evaluates `root_geometry` once at its roots, for
the test, its step factor and the next hop's tangent.  They step by one
rule, `_basin_factor`: a kept hop grows the step by min(STEP_GROWTH,
PREDICTOR_REACH / (gamma |dk/dg| step)), the least over a row's live
columns, so the predictor moves a root by at most PREDICTOR_REACH /
gamma; a refused hop halves it.  A one-root walk's first step is
PREDICTOR_REACH / (gamma |dk/dg|) at its start (`_basin_reach`).  No
list of exceptional points and no guard on r enters: gamma grows like
1/|r| where two roots meet, so a walk slows down there and stops
instead of stepping across, and a walk starts anywhere gamma is
finite, on the real axis as close beside a real branch point as it
likes.  Far from them gamma tends to pi / (2 sqrt 6) and dk/dg falls
like 1/|g|^2, so a vertical walk takes O(log depth) hops, except close
beside a column of the points its root meets.  One-root continuation
(`continue_along`, `continue_to`, `sheet_value`) has two outcomes: a
root at the path's end, or a SolverError that carries the last
accepted g and k.

Riemann sheets follow the vertical-transport convention: the value at
g = x + i*y is continued from the real-axis value at x straight up or
down.  Branch cuts then run parallel to the imaginary axis: away from
the real axis for complex branch points (which come in conjugate
pairs), and into the upper half plane for the real branch points at
g = 0 (even family) and g = -2/pi (odd family).  The lower half plane
is therefore cut-free near those real degeneracies, which is what makes
the bound-state convention Im k < 0 consistent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bethe import (RESIDUAL_ACCEPT, RESIDUAL_TARGET, BetheState, Parity,
                    SolverError, branch_point_function, check_coupling, is_label,
                    newton_correct, newton_correct_array, newton_correct_with_step,
                    real_axis_k, root_geometry, solve_k_real)
from .exceptional import family_eps, find_ep

#: an accepted hop grows the step by at most STEP_GROWTH
STEP_GROWTH = 1.7
#: the smallest step of one-root walks and of sheet rows
MIN_STEP = 1e-9
#: the most cells a grid holds: `lieb2b sheet`'s traced peak is about 370 B a
#: cell (14.9 MB at 201 x 201, 58.8 MB at 401 x 401), so a grid stays within 256 MB
MAX_CELLS = 500_000
#: a hop's predictor moves a root by at most PREDICTOR_REACH / gamma, and
#: `_accepted` keeps a corrected root at most CORRECTOR_REACH / gamma from
#: its predicted point (gamma of `root_geometry` at the root)
PREDICTOR_REACH, CORRECTOR_REACH = 0.2, 0.05


@dataclass
class ComplexPath:
    """Piecewise-linear path through couplings of the domain: geometry
    only; each walk along it sets its own step bounds."""

    waypoints: Sequence[complex]

    def __post_init__(self):
        self.waypoints = [complex(w) for w in self.waypoints]
        if not self.waypoints:
            raise ValueError("path needs at least one waypoint")
        check_coupling(self.waypoints)
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))

    def length(self) -> float:
        return float(sum(abs(b - a) for a, b in self.segments()))

    def reversed(self) -> "ComplexPath":
        return ComplexPath(list(self.waypoints)[::-1])

    def joined_with(self, other: "ComplexPath") -> "ComplexPath":
        if self.waypoints[-1] != other.waypoints[0]:
            raise ValueError("paths do not share an endpoint")
        return ComplexPath(list(self.waypoints) + list(other.waypoints)[1:])


def line_path(a, b) -> ComplexPath:
    return ComplexPath([complex(a), complex(b)])


def circle_path(center, radius, *, n_points: int = 96, clockwise: bool = True) -> ComplexPath:
    """Closed polygonal loop approximating a circle, once around.

    Clockwise is the orientation that encircles an exceptional point the
    way the holonomy conventions of this package expect (winding -1).
    A loop needs an integer n_points >= 3 and a finite radius > 0;
    anything else is a ValueError.
    """
    if not (is_label(n_points) and n_points >= 3):
        raise ValueError(f"a loop needs an integer n_points >= 3, got {n_points!r}")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"a loop needs a finite radius > 0, got {radius!r}")
    sign = -1.0 if clockwise else 1.0
    angles = sign * 2.0 * np.pi * np.arange(n_points + 1) / n_points
    pts = center + radius * np.exp(1j * angles)
    pts[-1] = pts[0]  # the loop closes exactly; kill rounding drift
    return ComplexPath(list(pts))


def _accepted(k, k_pred, gamma, scaled, converged):
    """Whether a corrected root k, predicted at k_pred, is kept,
    elementwise: converged or below a scaled residual of RESIDUAL_ACCEPT,
    and within CORRECTOR_REACH / gamma of k_pred, so deep inside the
    Newton basin of k (gamma of `root_geometry` at k).  gamma is inf at
    a branch point, where r = 0, and NaN fails, so no root there is kept.
    """
    return ((converged | (scaled < RESIDUAL_ACCEPT))
            & (gamma * abs(k - k_pred) <= CORRECTOR_REACH))


@np.errstate(over="ignore", invalid="ignore")
def _basin_reach(dg, slope, gamma) -> float:
    """PREDICTOR_REACH / (gamma |slope dg|), the least over an array: how
    many moves dg in g the tangent of a root (its slope, its gamma) takes
    to move it PREDICTOR_REACH / gamma; inf where the tangent is flat."""
    spread = float((gamma * np.abs(slope * dg)).max())
    return PREDICTOR_REACH / spread if spread != 0.0 else np.inf


def _basin_factor(dg, slope, gamma) -> float:
    """The factor of every kept continuation hop, a move dg in g:
    min(STEP_GROWTH, `_basin_reach`)."""
    return min(STEP_GROWTH, _basin_reach(dg, slope, gamma))


def walk_path(waypoints, state, hop, *, h: float, min_step: float, lookahead: int = 1):
    """Carry state along the polyline through waypoints.

    A step spans min(h, the rest of the segment); the one that reaches a
    waypoint in floating point goes to the waypoint itself, and h
    carries over corners.  hop(state, ends) gets the end of the step the
    walk takes now, followed, up to ``lookahead`` ends in all, by the
    ends of the steps after it that a corner clips when every step
    scales h by STEP_GROWTH: a smaller factor that still reaches the
    corner leaves them in place.  It returns a list of (state
    tried at an end, whether it is accepted, the factor that then scales
    h), one per leading end it tried: accepted tries, or a refused try
    of the first end.  The walk keeps the tries in order while each end
    is the one its rule gives with the factors reported before it.
    The first step, and each after an accepted try, spans at least a few
    spacings of doubles at its start, so no step ends where it starts.  Returns
    (end state, True, None), or (last accepted state, False, the refused
    try) once a refused try leaves h below min_step or those spacings.
    """
    segments = [(g_a, g_b, abs(g_b - g_a), (g_b - g_a) / abs(g_b - g_a))
                for g_a, g_b in zip(waypoints, waypoints[1:]) if g_a != g_b]

    def step(i, s, h):
        """The step from arclength s along segment i: (its end, h
        clipped to it, the segment and arclength it reaches)."""
        g_a, g_b, length, direction = segments[i]
        h = min(h, length - s)
        end = g_a + (s + h) * direction
        if h == length - s or s + h >= length or end == g_b:
            return g_b, h, i + 1, 0.0
        return end, h, i, s + h

    def spacing(i, s):
        """A few spacings of doubles at arclength s along segment i."""
        g_a, _, _, direction = segments[i]
        return 4.0 * math.ulp(abs(g_a + s * direction))

    i, s = 0, 0.0
    if segments:  # a first step shorter than the spacings would end where it starts
        h = max(h, spacing(0, 0.0))
    while i < len(segments):
        laid = [step(i, s, h)]
        ends = [laid[0][0]]
        while len(laid) < lookahead and laid[-1][2] < len(segments):
            _, clipped, j, t = laid[-1]
            after = step(j, t, clipped * STEP_GROWTH)
            if after[1] == clipped * STEP_GROWTH:
                break  # an unclipped end moves with any factor below STEP_GROWTH
            laid.append(after)
            ends.append(after[0])
        for (_, clipped, i_next, s_next), (tried, ok, factor) in zip(laid, hop(state, ends)):
            if h < clipped:
                break  # the factor before did not carry h to this clipped end
            h = clipped * factor
            if ok:
                state, i, s = tried, i_next, s_next
                if i < len(segments):  # the next step's end must not round to its start
                    h = max(h, spacing(i, s))
                continue
            if h < max(min_step, spacing(i, s)):
                return state, False, tried
    return state, True, None


def _scalar_hop(parity: Parity, root, g):
    """Predictor-corrector hop of one root, a (g, k, dk/dg) triple, to g,
    for `walk_path`.

    `newton_correct` runs to RESIDUAL_TARGET and `_accepted` decides;
    a kept hop scales the step by `_basin_factor`, a refused one halves
    it.  One `root_geometry` serves both and the next hop's predictor.
    On one point the scalar corrector is about four times faster than
    the sheet rows' array one.
    """
    g0, k0, slope0 = root
    k_pred = k0 + (g - g0) * slope0
    k, scaled, converged = newton_correct(parity, g, k_pred, tol=RESIDUAL_TARGET)
    _, slope, gamma = root_geometry(g, k)
    if not _accepted(k, k_pred, gamma, scaled, converged):
        return (g, k, None), False, 0.5
    return (g, k, slope), True, _basin_factor(g - g0, slope, gamma)


def _walk_root(start: BetheState, waypoints) -> complex:
    """The one-root walker: `walk_path` of the start's root through
    waypoints by `_scalar_hop`, the first hop spanning `_basin_reach` at
    the start.

    It has two outcomes: the root k at the last waypoint, or a
    SolverError that carries the last accepted g and k.  A start on a
    branch point takes no step: there gamma is not finite, so its reach
    is not positive.  A walk whose step underflows beside one stops
    there.  A hop keeps a root below RESIDUAL_ACCEPT, so a walk that
    arrives ends as a frame walk does: `newton_correct_with_step`
    corrects its end to RESIDUAL_TARGET, and the end takes the Newton
    step it returns.
    """
    parity, g, k = start.parity, complex(start.g), complex(start.k)
    _, slope, gamma = root_geometry(g, k)
    h = _basin_reach(1.0, slope, gamma)
    if not h > 0.0:
        raise SolverError(f"continuation starts on a branch point at g={g:.6g}", g=g, k=k)
    (g, k, _), reached, stalled = walk_path(
        waypoints, (g, k, slope), lambda root, ends: [_scalar_hop(parity, root, ends[0])],
        h=h, min_step=MIN_STEP)
    if not reached:
        raise SolverError(f"continuation stalls: step underflow near a branch point at "
                          f"g={stalled[0]:.6g} (|r|={abs(branch_point_function(g, k)):.3g})",
                          g=g, k=k)
    k_end, _, converged, step = newton_correct_with_step(parity, g, k, tol=RESIDUAL_TARGET)
    return complex(k_end - step) if converged else k


def continue_along(start: BetheState, path: ComplexPath) -> BetheState:
    """Continue a quasi-momentum branch along a piecewise-linear path.

    The path must begin at the state's coupling.  It may cross a cut
    and change sheets; each hop's basin test is local, so the walk needs
    no list of branch points.  Returns the state at the path's end,
    whose label n names the starting branch (continuation around a
    branch point permutes labels), or raises SolverError with the last
    accepted g and k where the walk stalls, so a caller meaning to
    encircle a branch point must route around it.
    """
    if abs(complex(path.waypoints[0]) - complex(start.g)) > 1e-12:
        raise ValueError("path must start at the state's coupling")
    k = _walk_root(start, path.waypoints)
    return BetheState(start.n, path.waypoints[-1], k, start.parity)


def continue_to(start: BetheState, g_target) -> BetheState:
    """Straight-line continuation from the state's coupling to g_target.
    At the state's own coupling that is the start state, as `sheet_value`
    at a real g is its anchor."""
    if complex(g_target) == complex(start.g):
        check_coupling(g_target)
        return start
    return continue_along(start, line_path(start.g, g_target))


def sheet_value(n: int, g) -> complex:
    """k_n(g) on the standard sheet: the real-axis root at Re g, walked
    by `_walk_root` straight up or down."""
    g = complex(g)
    anchor = solve_k_real(n, g.real)
    check_coupling(g)
    if g.imag == 0.0:
        return anchor.k
    return _walk_root(anchor, (complex(anchor.g), g))


def conjugation_symmetry_check(n: int, g) -> int:
    """Sign s in conj(k_n(conj(g))) = s * k_n(g) on the standard sheet.

    Both values are walked from one real-axis anchor, as in
    `sheet_value`.  Returns +1 or -1; raises
    SolverError if either value is unreachable by vertical continuation
    or if neither sign matches to 1e-8.
    """
    g = complex(g)
    anchor = solve_k_real(n, g.real)
    check_coupling(g)
    k_here, k_mirror = (_walk_root(anchor, (complex(anchor.g), target))
                        if g.imag else anchor.k for target in (g, g.conjugate()))
    tol = 1e-8 * max(1.0, abs(k_here))
    if abs(k_mirror.conjugate() - k_here) < tol:
        return +1
    if abs(k_mirror.conjugate() + k_here) < tol:
        return -1
    raise SolverError(
        f"conjugation symmetry violated for n={n}, g={g}: "
        f"k(g)={k_here}, conj(k(conj(g)))={k_mirror.conjugate()}",
        g=g, k=k_here,
    )


# ---------------------------------------------------------------------------
# Riemann sheets on a rectangular grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in the complex coupling plane.

    The window must straddle the real axis, which anchors the vertical
    continuation, and lie in the coupling domain, and the grid may hold
    at most MAX_CELLS cells; 201 x 201 on [-8, 2] x [-5, 5] reproduces
    the default survey window.
    """

    re_min: float = -8.0
    re_max: float = 2.0
    im_min: float = -5.0
    im_max: float = 5.0
    n_re: int = 201
    n_im: int = 201

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate grid window")
        if not (self.im_min <= 0.0 <= self.im_max):
            raise ValueError("grid must straddle the real axis")
        check_coupling([complex(self.re_min, self.im_min),
                        complex(self.re_max, self.im_max)])
        if not all(is_label(n) and n >= 2 for n in (self.n_re, self.n_im)):
            raise ValueError("need an integer of at least 2 points per direction")
        if self.n_re * self.n_im > MAX_CELLS:
            raise ValueError(f"a grid holds at most {MAX_CELLS} cells, "
                             f"got {self.n_re} x {self.n_im}")

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.n_re)

    @property
    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.n_im)


@dataclass(frozen=True)
class CutSegment:
    """Vertical branch-cut segment attached to a branch point.

    kind is "exceptional" for cuts hanging off complex branch points
    (running away from the real axis) and "real-axis" for the cuts of
    the real degeneracies at g = 0 / g = -2/pi (running upward).
    """

    re: float
    im_lo: float
    im_hi: float
    kind: str
    branch_point: complex


@dataclass
class RiemannSheet:
    """One branch's values over a grid, with recorded cut segments.

    k[i, j] holds the branch value at re_axis[j] + 1j*im_axis[i] (row i
    is the i-th imaginary ordinate, column j the j-th real abscissa);
    cells that vertical continuation could not reach are NaN.
    """

    n: int
    parity: Parity
    re_axis: np.ndarray
    im_axis: np.ndarray
    k: np.ndarray
    axis_k: np.ndarray
    cut_segments: list
    aborted_columns: dict


def _march_rows(parity, xs, axis_k, ims, *, tol, k_out):
    """March all columns from the axis up and down through the rows ims.

    Both halves walk together by a row counter t: the i-th row out from
    the axis on either side sits at t = i + 1, and a step ends at the
    same fraction of each half's row gap.  Each row depth is one
    `walk_path` along t from the one before.  A hop predicts every live
    column of both halves from its tangent and corrects them all to tol
    in one `newton_correct_array` call; it is accepted if every column
    passes `_accepted`, and else halves the step for all.  Once the step
    in Im g falls below MIN_STEP, the columns that failed abort at their
    row and the others walk on; a half's columns leave after its last
    row.  Returns each half's aborted columns (upper half first), each
    with the ordinate of the row it aborted at.
    """
    halves = [np.flatnonzero(ims > 0.0), np.flatnonzero(ims < 0.0)[::-1]]
    depths = np.array([rows.size for rows in halves])
    n_re, rows = xs.size, np.zeros((2, depths.max()), dtype=int)
    rows[0, :depths[0]], rows[1, :depths[1]] = halves
    ys = np.pad(ims[rows], ((0, 0), (1, 0)))  # each half's ordinates from t = 0
    # column c of the walk is column c % n_re of half c // n_re
    gaps, x_col = np.abs(np.diff(ys)), np.tile(xs, 2)

    def hop(state, ends):
        # state: (t0, live columns, their g, k and dk/dg); a refused try: the passed mask
        (t0, cols, g0, k0, slope0), t = state, ends[0]
        row, half, s = int(t0), cols // n_re, t - int(t0)
        # exact at both ends of the row, so a full row lands on its ordinates
        g = x_col[cols] + 1j * ((1.0 - s) * ys[half, row] + s * ys[half, row + 1])
        dg = g - g0
        k_pred = k0 + dg * slope0
        k, scaled, converged = newton_correct_array(parity, g, k_pred, tol=tol, max_iter=6)
        _, slope, gamma = root_geometry(g, k)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged try fails
            ok = _accepted(k, k_pred, gamma, scaled, converged)
        if not ok.all():
            return [(ok, False, 0.5)]
        return [((t, cols, g, k, slope), True, _basin_factor(dg, slope, gamma))]

    cols = np.flatnonzero(np.tile(~np.isnan(axis_k.real), 2) & np.repeat(depths > 0, n_re))
    g, k = x_col[cols] + 0j, np.tile(axis_k, 2)[cols]
    state, abort_at = (0.0, cols, g, k, root_geometry(g, k)[1]), ({}, {})
    for row in range(depths.max()):
        while state[1].size:
            state, reached, passed = walk_path(
                (state[0], row + 1.0), state, hop, h=row + 1.0 - state[0],
                min_step=MIN_STEP / gaps[state[1] // n_re, row].max())
            if reached:
                break
            t0, cols, g, k, slope = state
            for c in cols[~passed].tolist():
                abort_at[c // n_re][c % n_re] = float(ys[c // n_re, row + 1])
            state = (t0, cols[passed], g[passed], k[passed], slope[passed])
        t, cols, g, k, slope = state
        k_out[rows[cols // n_re, row], cols % n_re] = k
        stay = row + 1 < depths[cols // n_re]
        state = (t, cols[stay], g[stay], k[stay], slope[stay])
    return abort_at


def build_sheet(n: int, grid: GridSpec, *, tol: float = RESIDUAL_TARGET,
                ep_finder=None) -> RiemannSheet:
    """Construct one branch's Riemann sheet over a rectangular grid.

    Each column is anchored at its real-axis value and continued
    vertically both ways, both halves in one march (`_march_rows`).
    Columns whose continuation runs into a branch point are marked
    incomplete from that ordinate outward and recorded in
    aborted_columns, by the upper ordinate if both halves abort.  Cut
    segments are attached at the label's own branch points in the
    window: its collision point for n > 1, every partner collision for
    the bound labels n in {0, 1}, their upper-half mirror images, and
    the real-axis degeneracy of the bound label (cut running upward).

    By default n > 1 asks `find_ep(n)` and the bound labels read their
    partners from one lazy `family_eps` walk.  A caller may inject
    ep_finder, which maps a level label to its complex branch point, as
    a precomputed catalog instead; the bound labels then ask it for
    n + 2, n + 4, ... in turn.  n > 1 asks neither where n - 1 reaches
    the window's depth: g_ep(n) lies deeper than n - 1, below the
    window.  The partners end at the first point left of re_min or
    deeper than the window.  A sheet has two outcomes: the sheet with
    every cut, or the error of the first lookup that fails.
    """
    parity = Parity.of_level(n)
    xs = grid.re_axis
    ims = grid.im_axis
    k_out = np.full((ims.size, xs.size), np.nan + 1j * np.nan, dtype=complex)

    axis_k = real_axis_k(n, xs)
    # real branch point exactly on a column: the anchor is degenerate
    rbp = parity.real_branch_point
    if n == parity.bound_level:
        on_bp = np.isclose(xs, rbp, rtol=0.0, atol=1e-12) & (np.abs(axis_k) < 1e-9)
        axis_k[on_bp] = np.nan + 1j * np.nan
    aborted = {int(j): 0.0 for j in np.flatnonzero(np.isnan(axis_k))}

    if np.any(ims == 0.0):
        k_out[np.flatnonzero(ims == 0.0)[0], :] = axis_k

    for march in _march_rows(parity, xs, axis_k, ims, tol=tol, k_out=k_out):
        for col, y in march.items():
            aborted.setdefault(col, y)

    depth = max(-grid.im_min, grid.im_max)
    if n > 1 and n - 1 >= depth:
        points = []  # g_ep(n) lies deeper than n - 1, so below the window
    elif ep_finder is not None:
        points = map(ep_finder, [n] if n > 1 else itertools.count(n + 2, 2))
    elif n > 1:
        points = [find_ep(n, verify_unique=False).g_ep]
    else:
        points = (ep.g_ep for ep in family_eps(parity, depth))
    cuts = []
    for bp in map(complex, points):
        if bp.real < grid.re_min or abs(bp.imag) > depth:
            # Re g_ep falls and |Im g_ep| grows monotonically up the
            # ladder, so no later partner reaches the window either
            break
        for point in (bp, bp.conjugate()):
            inside = (grid.re_min <= point.real <= grid.re_max
                      and grid.im_min <= point.imag <= grid.im_max)
            if not inside:
                continue
            if point.imag < 0:
                lo, hi = grid.im_min, point.imag
            else:
                lo, hi = point.imag, grid.im_max
            cuts.append(CutSegment(point.real, lo, hi, "exceptional", point))
    if n == parity.bound_level and grid.re_min <= rbp <= grid.re_max:
        cuts.append(CutSegment(rbp, 0.0, grid.im_max, "real-axis", complex(rbp)))

    return RiemannSheet(n, parity, xs, ims, k_out, axis_k, cuts, aborted)
