"""
Analytic continuation of quasi-momentum branches over complex coupling.

A branch k_n(g) continues off the real axis as the root of the
pole-free Bethe residual that stays connected to its real-axis value.
Each hop uses a first-order predictor (`tangent_slope`)

    k -> k + dg * G(g, k),    G = -dJ/dg / dJ/dk = 2 k / (pi r),
    r(g, k) = k^2 + g^2 + 2 g / pi,

followed by damped Newton correction at the new coupling, by the
correctors of `lieb2b.bethe` (the only module that evaluates the
residual kernel).  r -> 0 is
exactly dJ/dk = 0, i.e. a branch point where two branches collide and
the local behaviour turns into a square root with coefficient

    G2 = -2 (dJ/dg) / (d^2J/dk^2) = -(g^2 + k^2) / g,

equal to 2/pi wherever r = 0.  One walker, `walk_path`, carries a root
along a path, a sheet row from the one before it, and (in `holonomy`) a
transport frame and transport's Magnus steps, which take several of its
step ends in one hop.  One-root and sheet-row
hops accept by one test, `_accepted`, which refuses a root near a
branch point (|dJ/dk| < 1e-4), so the walk slows down there and stops
instead of stepping across.

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

import cmath
import enum
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bethe import (RESIDUAL_ACCEPT, RESIDUAL_TARGET, BetheState, Parity,
                    SolverError, branch_point_function, check_coupling,
                    newton_correct, newton_correct_array, real_axis_k,
                    solve_k_real)
from .exceptional import find_ep

#: `_accepted`'s branch-point guard; an accepted hop grows the step by STEP_GROWTH
DJ_DK_FLOOR, STEP_GROWTH = 1e-4, 1.7
#: one-root walks' largest step; their smallest, and that of sheet rows
MAX_STEP, MIN_STEP = 0.05, 1e-9


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


def circle_path(center, radius, *, n_points: int = 96, clockwise: bool = True,
                turns: int = 1) -> ComplexPath:
    """Closed polygonal loop approximating a circle.

    Clockwise is the orientation that encircles an exceptional point the
    way the holonomy conventions of this package expect (winding -1).
    A loop needs an integer n_points >= 3, an integer turns >= 1 and a
    finite radius > 0; anything else is a ValueError.
    """
    if not (isinstance(n_points, numbers.Integral) and n_points >= 3):
        raise ValueError(f"a loop needs an integer n_points >= 3, got {n_points!r}")
    if not (isinstance(turns, numbers.Integral) and turns >= 1):
        raise ValueError(f"a loop needs an integer turns >= 1, got {turns!r}")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"a loop needs a finite radius > 0, got {radius!r}")
    sign = -1.0 if clockwise else 1.0
    angles = sign * 2.0 * np.pi * np.arange(n_points * turns + 1) / n_points
    pts = center + radius * np.exp(1j * angles)
    pts[-1] = pts[0]  # integer turns close exactly; kill rounding drift
    return ComplexPath(list(pts))


class TraceStatus(enum.Enum):
    COMPLETED = "completed"
    ABORTED_NEAR_BRANCH_POINT = "aborted-near-branch-point"


class ContinuationSample(NamedTuple):
    g: complex
    k: complex
    scaled_residual: float


def tangent_slope(g, k):
    """First-order predictor slope dk/dg = 2 k / (pi r) along a branch.

    0 where r vanishes (a branch point) or the slope is not finite, so
    the predictor falls back to the current k.  Scalars are computed in
    Python complex arithmetic; if either argument is an array, both are
    evaluated elementwise in numpy.
    """
    if isinstance(g, np.ndarray) or isinstance(k, np.ndarray):
        g, k = np.asarray(g), np.asarray(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = 2.0 * k / (np.pi * branch_point_function(g, k))
        return np.where(np.isfinite(slope), slope, 0.0)
    g, k = complex(g), complex(k)
    try:
        slope = 2.0 * k / (np.pi * branch_point_function(g, k))
    except ZeroDivisionError:
        return 0j
    return slope if cmath.isfinite(slope) else 0j


def _accepted(g, k, scaled, converged):
    """Whether a corrected root is kept, elementwise: converged or below
    a scaled residual of RESIDUAL_ACCEPT, and |dJ/dk| = |r / (g^2 + k^2)|
    at least DJ_DK_FLOOR, away from a branch point.  Taken without
    division, the bound passes the deep bound branch k ~ -i|g|, where
    g^2 + k^2 cancels to 0 (the arctan pole, dJ/dk infinite); NaN fails.
    """
    return ((converged | (scaled < RESIDUAL_ACCEPT))
            & (abs(branch_point_function(g, k)) >= DJ_DK_FLOOR * abs(g * g + k * k)))


@dataclass
class ContinuationTrace:
    """Result of continuing one branch along a path: the start state and
    the last accepted sample, the path end unless the walk stalled."""

    start: BetheState
    end: ContinuationSample
    status: TraceStatus = TraceStatus.COMPLETED
    note: str = ""

    @property
    def final_g(self) -> complex:
        return self.end.g

    @property
    def final_k(self) -> complex:
        return self.end.k

    def final_state(self) -> BetheState:
        """Endpoint as a BetheState; the label n names the starting
        branch (continuation around a branch point permutes labels)."""
        return BetheState(self.start.n, self.final_g, self.final_k, self.start.parity)


def walk_path(waypoints, state, hop, *, h: float, max_step: float, min_step: float,
              lookahead: int = 1, growth: float = 1.0):
    """Carry state along the polyline through waypoints.

    A step spans min(h, max_step, the rest of the segment); the one that
    reaches a waypoint in floating point goes to the waypoint itself,
    and h carries over corners.  hop(state, ends) gets the end of the
    step the walk takes now, followed, up to ``lookahead`` ends in all,
    by the ends of the steps after it that a corner or max_step clips
    when every step scales h by ``growth``: a smaller factor that still
    reaches the clip leaves them in place.  It returns a list of (state
    tried at an end, whether it is accepted, the factor that then scales
    h), one per leading end it tried: accepted tries, or a refused try
    of the first end.  The walk keeps the tries in order while each end
    is the one its rule gives with the factors reported before it.
    After an accepted try h is at least a few spacings of doubles at the
    current point, so the next step cannot end where it starts.  Returns
    (end state, True, None), or (last accepted state, False, the refused
    try) once a refused try leaves h below min_step or those spacings.
    """
    segments = [(g_a, g_b, abs(g_b - g_a), (g_b - g_a) / abs(g_b - g_a))
                for g_a, g_b in zip(waypoints, waypoints[1:]) if g_a != g_b]

    def step(i, s, h):
        """The step from arclength s along segment i: (its end, h
        clipped to it, the segment and arclength it reaches)."""
        g_a, g_b, length, direction = segments[i]
        h = min(h, max_step, length - s)
        if h == length - s or s + h >= length:
            return g_b, h, i + 1, 0.0
        return g_a + (s + h) * direction, h, i, s + h

    def spacing(i, s):
        """A few spacings of doubles at arclength s along segment i."""
        g_a, _, _, direction = segments[i]
        return 4.0 * math.ulp(abs(g_a + s * direction))

    i, s = 0, 0.0
    while i < len(segments):
        laid = [step(i, s, h)]
        ends = [laid[0][0]]
        while len(laid) < lookahead and laid[-1][2] < len(segments):
            _, clipped, j, t = laid[-1]
            after = step(j, t, clipped * growth)
            if after[1] == clipped * growth:
                break  # an unclipped end moves with any factor below growth
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


def _scalar_hop(parity: Parity, sample: ContinuationSample, g, tol: float):
    """Predictor-corrector hop of one root to g, for `walk_path`.

    `newton_correct` runs to tol and `_accepted` decides; the hop grows
    the step by STEP_GROWTH or halves it.  On one point the scalar
    corrector is about four times faster than the sheet rows' array one.
    """
    k_pred = sample.k + (g - sample.g) * tangent_slope(sample.g, sample.k)
    k, scaled, converged = newton_correct(parity, g, k_pred, tol=tol)
    ok = _accepted(g, k, scaled, converged)
    return ContinuationSample(g, k, scaled), ok, STEP_GROWTH if ok else 0.5


def continue_along(start: BetheState, path: ComplexPath) -> ContinuationTrace:
    """Continue a quasi-momentum branch along a piecewise-linear path.

    The path must begin at the state's coupling; `walk_path` walks it
    with scalar hops corrected to RESIDUAL_TARGET, steps between
    MIN_STEP and MAX_STEP.  A stalled walk ends the trace with
    ABORTED_NEAR_BRANCH_POINT and the last good sample, so a caller
    meaning to encircle a branch point must route around it.
    """
    if abs(complex(path.waypoints[0]) - complex(start.g)) > 1e-12:
        raise ValueError("path must start at the state's coupling")
    parity = start.parity
    sample = ContinuationSample(complex(start.g), complex(start.k),
                                float(start.scaled_residual()))
    sample, reached, stalled = walk_path(
        path.waypoints, sample,
        lambda s, ends: [_scalar_hop(parity, s, ends[0], RESIDUAL_TARGET)],
        h=MAX_STEP, max_step=MAX_STEP, min_step=MIN_STEP)
    trace = ContinuationTrace(start, sample)
    if not reached:
        trace.status = TraceStatus.ABORTED_NEAR_BRANCH_POINT
        trace.note = (f"step underflow near a branch point at g={stalled.g:.6g} "
                      f"(|r|={abs(branch_point_function(sample.g, sample.k)):.3g})")
    return trace


def continue_to(start: BetheState, g_target) -> ContinuationTrace:
    """Straight-line continuation from the state's coupling to g_target."""
    return continue_along(start, line_path(start.g, g_target))


def sheet_value(n: int, g) -> complex:
    """k_n(g) on the standard sheet (vertical continuation from Re g)."""
    g = complex(g)
    anchor = solve_k_real(n, g.real)
    if g.imag == 0.0:
        return anchor.k
    trace = continue_to(anchor, g)
    if trace.status is not TraceStatus.COMPLETED:
        raise SolverError(
            f"vertical continuation aborted: {trace.note}",
            g=trace.final_g, k=trace.final_k,
        )
    return trace.final_k


def conjugation_symmetry_check(n: int, g) -> int:
    """Sign s in conj(k_n(conj(g))) = s * k_n(g) on the standard sheet.

    Returns +1 or -1; raises SolverError if either value is unreachable
    by vertical continuation or if neither sign matches to 1e-8.
    """
    g = complex(g)
    k_here = sheet_value(n, g)
    k_mirror = sheet_value(n, g.conjugate())
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
    continuation, and lie in the coupling domain; 201 x 201 on
    [-8, 2] x [-5, 5] reproduces the default survey window.
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
        if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (self.n_re, self.n_im)):
            raise ValueError("need an integer of at least 2 points per direction")

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


def _march_half(parity, xs, k_anchor, ordinates, *, tol, k_out, rows):
    """March all columns from the axis through the given ordinates.

    ordinates are monotone (ascending above the axis, descending below);
    rows[i] is the row index of ordinates[i] in the output array.  Each
    row is one `walk_path` along Im g from the row before, in steps of
    at most the row spacing.  A hop predicts every live column from its
    tangent and corrects them all to tol in one `newton_correct_array`
    call; it is accepted if every column passes `_accepted`, and else
    halves the step for all.  Once the step falls below MIN_STEP, the
    columns that failed abort at that row and the others walk on.
    """
    def hop(state, ends):
        # state: (y0, live columns, their k); a refused try is the mask
        # of the columns that passed
        (y0, cols, k0), y = state, ends[0]
        g0, g = xs[cols] + 1j * y0, xs[cols] + 1j * y
        k, scaled, converged = newton_correct_array(
            parity, g, k0 + (g - g0) * tangent_slope(g0, k0), tol=tol, max_iter=6)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged try fails
            ok = _accepted(g, k, scaled, converged)
        return [((y, cols, k), True, STEP_GROWTH) if ok.all() else (ok, False, 0.5)]

    cols = np.flatnonzero(~np.isnan(k_anchor.real))
    state, abort_at = (0.0, cols, k_anchor[cols]), {}
    for y, row in zip(ordinates, rows):
        while state[1].size:
            gap = abs(y - state[0])
            state, reached, passed = walk_path((state[0], y), state, hop, h=gap,
                                               max_step=gap, min_step=MIN_STEP)
            if reached:
                break
            y0, cols, k = state
            abort_at.update(dict.fromkeys(cols[~passed].tolist(), float(y)))
            state = (y0, cols[passed], k[passed])
        k_out[row, state[1]] = state[2]
    return abort_at


def _catalog_branch_point(m: int) -> complex:
    """Level m's branch point by `find_ep`, without its uniqueness check."""
    return find_ep(m, verify_unique=False).g_ep


def build_sheet(n: int, grid: GridSpec, *, tol: float = RESIDUAL_TARGET,
                ep_finder=_catalog_branch_point) -> RiemannSheet:
    """Construct one branch's Riemann sheet over a rectangular grid.

    Each column is anchored at its real-axis value and continued
    vertically both ways.  Columns whose continuation runs into a
    branch point are marked incomplete from that ordinate outward and
    recorded in aborted_columns.  Cut segments are attached from the
    branch-point catalog: the sheet's own collision points for n > 1,
    every partner collision for the bound labels n in {0, 1}, their
    upper-half mirror images, and the real-axis degeneracy of the
    bound label (cut running upward).

    ep_finder maps a level label to its complex branch point; the
    default asks `find_ep`, and a caller may inject a precomputed
    catalog instead.
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

    for rows in (np.flatnonzero(ims > 0.0), np.flatnonzero(ims < 0.0)[::-1]):
        march = _march_half(parity, xs, axis_k, ims[rows], tol=tol, k_out=k_out, rows=rows)
        for col, y in march.items():
            aborted.setdefault(col, y)

    cuts = []
    # n > 1: its own point; n in {0, 1}: every partner whose branch
    # point (depth about m - 1) lies above the window's floor, or at
    # most 1.5 below it, asked for one at a time
    partners = [n] if n > 1 else range(n + 2, int(abs(grid.im_min) + 2.5) + 1, 2)
    for m in partners:
        try:
            bp = complex(ep_finder(m))
        except RuntimeError:
            # a missing catalog entry costs one cut, not the sheet
            continue
        if bp.real < grid.re_min:
            # Re g_ep falls monotonically up the ladder, so no later
            # partner reaches the window either
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
