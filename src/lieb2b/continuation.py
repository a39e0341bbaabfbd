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
along a path, a sheet column the array corrector could not move, and
(in `holonomy`) a transport frame and transport's Magnus steps.  A
scalar hop is refused near a branch point (|dJ/dk| < 1e-4), so the
walk slows down there and stops instead of stepping across.

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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .bethe import (RESIDUAL_TARGET, BetheState, Parity, SolverError,
                    branch_point_function, check_coupling, newton_correct,
                    newton_correct_array, real_axis_k, solve_k_real)
from .exceptional import find_ep

#: `continue_along`'s Newton tolerance and `_scalar_hop`'s acceptance rules;
#: an accepted hop grows the step by STEP_GROWTH
HOP_TOL, HOP_ACCEPT, DJ_DK_FLOOR, STEP_GROWTH = 1e-12, 1e-10, 1e-4, 1.7
#: scalar walks' largest and smallest step
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
    """
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


def dj_dk(g, k):
    """dJ/dk = r / (g^2 + k^2); small magnitude marks branch-point proximity.

    On the deep bound branch k ~ -i|g| the denominator cancels to
    exactly 0: that is the arctan pole, where dJ/dk is infinite and no
    branch point is near.
    """
    g, k = complex(g), complex(k)
    denom = g * g + k * k
    if denom == 0:
        return complex(np.inf)
    return branch_point_function(g, k) / denom


@dataclass
class ContinuationTrace:
    """Result of continuing one branch along a path."""

    start: BetheState
    samples: list = field(default_factory=list)
    status: TraceStatus = TraceStatus.COMPLETED
    note: str = ""

    @property
    def final_g(self) -> complex:
        return self.samples[-1].g

    @property
    def final_k(self) -> complex:
        return self.samples[-1].k

    def final_state(self) -> BetheState:
        """Endpoint as a BetheState; the label n names the starting
        branch (continuation around a branch point permutes labels)."""
        return BetheState(self.start.n, self.final_g, self.final_k, self.start.parity)


def walk_path(waypoints, state, hop, *, h: float, max_step: float, min_step: float):
    """Carry state along the polyline through waypoints.

    hop(state, g) returns (the state tried at g, whether it is accepted,
    the factor that then scales the step h).  A hop spans min(h,
    max_step, the rest of the segment); the one that reaches a waypoint
    in floating point goes to the waypoint itself, and h carries over
    corners.  Returns (end state, True, None), or (last accepted state,
    False, the refused try) once a refused hop leaves h below min_step
    or below a few spacings of doubles at the current point.
    """
    for g_a, g_b in zip(waypoints, waypoints[1:]):
        length = abs(g_b - g_a)
        direction = (g_b - g_a) / length if length else 0j
        s = 0.0  # arclength progressed along the segment
        while s < length:
            h = min(h, max_step, length - s)
            last = h == length - s or s + h >= length
            tried, ok, factor = hop(state, g_b if last else g_a + (s + h) * direction)
            if ok:
                state, s = tried, length if last else s + h
            h *= factor
            if not ok and h < max(min_step, 4.0 * math.ulp(abs(g_a + s * direction))):
                return state, False, tried
    return state, True, None


def _scalar_hop(parity: Parity, sample: ContinuationSample, g, tol: float):
    """Predictor-corrector hop of one root to g, for `walk_path`.

    Newton runs to tol; the hop is accepted at tol or below a scaled
    residual of HOP_ACCEPT, unless |dJ/dk| < DJ_DK_FLOOR there or is
    not a number.  It grows the step by STEP_GROWTH or halves it.
    """
    k_pred = sample.k + (g - sample.g) * tangent_slope(sample.g, sample.k)
    k, scaled, ok = newton_correct(parity, g, k_pred, tol=tol)
    ok = (ok or scaled < HOP_ACCEPT) and abs(dj_dk(g, k)) >= DJ_DK_FLOOR
    return ContinuationSample(g, k, scaled), ok, STEP_GROWTH if ok else 0.5


def continue_along(start: BetheState, path: ComplexPath) -> ContinuationTrace:
    """Continue a quasi-momentum branch along a piecewise-linear path.

    The path must begin at the state's coupling; `walk_path` walks it
    with scalar hops, steps between MIN_STEP and MAX_STEP.  A stalled
    walk ends the trace with ABORTED_NEAR_BRANCH_POINT and the last good
    sample, so a caller meaning to encircle a branch point must route
    around it.
    """
    if abs(complex(path.waypoints[0]) - complex(start.g)) > 1e-12:
        raise ValueError("path must start at the state's coupling")
    parity = start.parity
    sample = ContinuationSample(complex(start.g), complex(start.k),
                                float(start.scaled_residual()))
    trace = ContinuationTrace(start, [sample])

    def hop(s, g):
        new, ok, factor = _scalar_hop(parity, s, g, HOP_TOL)
        if ok:
            trace.samples.append(new)
        return new, ok, factor

    sample, reached, stalled = walk_path(path.waypoints, sample, hop, h=MAX_STEP,
                                         max_step=MAX_STEP, min_step=MIN_STEP)
    if not reached:
        trace.status = TraceStatus.ABORTED_NEAR_BRANCH_POINT
        trace.note = (f"step underflow near a branch point at g={stalled.g:.6g} "
                      f"(|dJ/dk|={abs(dj_dk(sample.g, sample.k)):.3g})")
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
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("need at least 2 points per direction")

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
    row corrects all live columns in one `newton_correct_array` call; a
    column left above a scaled residual of 1e-9 is walked to the row by
    `walk_path` with scalar hops instead, and aborts if that stalls.
    tol is the Newton tolerance of both.
    """
    k_cur = k_anchor.astype(complex).copy()
    y_cur = np.zeros(xs.size)
    alive = ~np.isnan(k_cur.real)
    abort_at = {}
    for y, row in zip(ordinates, rows):
        if not alive.any():
            break
        g_new = xs[alive] + 1j * y
        g_old = xs[alive] + 1j * y_cur[alive]
        k_old = k_cur[alive]
        k_pred = k_old + (g_new - g_old) * tangent_slope(g_old, k_old)
        k_new, scaled, _ = newton_correct_array(parity, g_new, k_pred, tol=tol,
                                                max_iter=6)
        ok = scaled < 1e-9
        idx_alive = np.flatnonzero(alive)
        k_cur[idx_alive[ok]] = k_new[ok]
        for col in idx_alive[~ok]:
            g_from = complex(xs[col], y_cur[col])
            end, reached, _ = walk_path(
                (g_from, complex(xs[col], y)),
                ContinuationSample(g_from, complex(k_cur[col]), float("nan")),
                lambda s, g: _scalar_hop(parity, s, g, tol),
                h=abs(y - y_cur[col]), max_step=np.inf, min_step=MIN_STEP)
            if reached:
                k_cur[col] = end.k
            else:
                alive[col] = False
                abort_at[int(col)] = float(y)
        y_cur[alive] = y
        k_out[row, alive] = k_cur[alive]
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
