"""
Analytic continuation of quasi-momentum branches over complex coupling.

A branch k_n(g) continues off the real axis as the root of the
pole-free Bethe residual that stays connected to its real-axis value.
Stepping uses a first-order predictor (`tangent_slope`)

    k -> k + dg * G(g, k),    G = -dJ/dg / dJ/dk = 2 k / (pi r),
    r(g, k) = k^2 + g^2 + 2 g / pi,

followed by damped Newton correction at the new coupling.  r -> 0 is
exactly dJ/dk = 0, i.e. a branch point where two branches collide and
the local behaviour turns into a square root with coefficient

    G2 = -2 (dJ/dg) / (d^2J/dk^2) = -(g^2 + k^2) / g,

equal to 2/pi wherever r = 0.  The step control shrinks near a branch
point and gives up at the path's min_step instead of stepping across.

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

from .bethe import (
    DEEP_IM_H,
    BetheState,
    Parity,
    SolverError,
    bethe_residual,
    residual_terms,
    scaled_bethe_residual,
    solve_k_real,
    unscaled_residual_terms,
)

@dataclass
class ComplexPath:
    """Piecewise-linear path in the complex coupling plane.

    Step-control parameters ride along with the geometry so that a path
    built once can be handed to continuation and transport unchanged.
    """

    waypoints: Sequence[complex]
    max_step: float = 0.05
    min_step: float = 1e-9
    shrink: float = 0.5
    grow: float = 1.7

    def __post_init__(self):
        self.waypoints = [complex(w) for w in self.waypoints]
        if not self.waypoints:
            raise ValueError("path needs at least one waypoint")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        if not (0 < self.min_step <= self.max_step):
            raise ValueError("require 0 < min_step <= max_step")
        if not (0 < self.shrink < 1 < self.grow):
            raise ValueError("require 0 < shrink < 1 < grow")

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))

    def length(self) -> float:
        return float(sum(abs(b - a) for a, b in self.segments()))

    def reversed(self) -> "ComplexPath":
        return ComplexPath(list(self.waypoints)[::-1], self.max_step,
                           self.min_step, self.shrink, self.grow)

    def joined_with(self, other: "ComplexPath") -> "ComplexPath":
        if self.waypoints[-1] != other.waypoints[0]:
            raise ValueError("paths do not share an endpoint")
        return ComplexPath(list(self.waypoints) + list(other.waypoints)[1:],
                           min(self.max_step, other.max_step),
                           min(self.min_step, other.min_step),
                           self.shrink, self.grow)


def line_path(a, b, **kw) -> ComplexPath:
    return ComplexPath([complex(a), complex(b)], **kw)


def circle_path(center, radius, *, n_points: int = 96, clockwise: bool = True,
                theta0: float = 0.0, turns: int = 1, **kw) -> ComplexPath:
    """Closed polygonal loop approximating a circle.

    Clockwise is the orientation that encircles an exceptional point the
    way the holonomy conventions of this package expect (winding -1).
    """
    sign = -1.0 if clockwise else 1.0
    angles = theta0 + sign * 2.0 * np.pi * np.arange(n_points * turns + 1) / n_points
    pts = center + radius * np.exp(1j * angles)
    pts[-1] = pts[0]  # integer turns close exactly; kill rounding drift
    kw.setdefault("max_step", max(radius / 4.0, 1e-12))
    return ComplexPath(list(pts), **kw)


class TraceStatus(enum.Enum):
    COMPLETED = "completed"
    ABORTED_NEAR_BRANCH_POINT = "aborted-near-branch-point"
    ABORTED_RESIDUAL_OVERFLOW = "aborted-residual-overflow"


class ContinuationSample(NamedTuple):
    g: complex
    k: complex
    scaled_residual: float


def branch_point_function(g, k):
    """r(g, k) = k^2 + g^2 + 2 g/pi; zero exactly where dJ/dk = 0."""
    return k * k + g * g + 2.0 * g / np.pi


def tangent_slope(g, k):
    """First-order predictor slope dk/dg = 2 k / (pi r) along a branch.

    Evaluated at g/m and k/m, with m the power of two just above
    max(|g|, |k|): the scaling is exact, so the value is the unscaled
    formula's to the bit (barring subnormals), but r no longer
    overflows where k^2 + g^2 would (|g| beyond about 1e154).  0 where r vanishes (a branch
    point) or the slope is not finite, so the predictor falls back to
    the current k.  Scalars are computed in Python complex arithmetic,
    arrays elementwise in numpy.
    """
    if isinstance(g, np.ndarray) or isinstance(k, np.ndarray):
        s = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(g), np.abs(k)))[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = _scaled_slope(g * s, k * s, s)
        return np.where(np.isfinite(slope), slope, 0.0)
    g, k = complex(g), complex(k)
    s = math.ldexp(1.0, -math.frexp(max(abs(g), abs(k)))[1])
    try:
        slope = _scaled_slope(g * s, k * s, s)
    except ZeroDivisionError:
        return 0j
    return slope if cmath.isfinite(slope) else 0j


def _scaled_slope(g, k, s):
    """2 k / (pi r) from g s and k s, s = 1/m: the r here is r(g, k) s^2."""
    return 2.0 * k / (np.pi * (k * k + g * g + 2.0 * g / np.pi * s)) * s


def dj_dk(g, k):
    """dJ/dk = r / (g^2 + k^2); small magnitude marks branch-point proximity.

    On the deep bound branch k ~ -i|g| the denominator cancels to exactly
    0: that is the arctan pole, where dJ/dk is infinite and no branch
    point is near.
    """
    denom = g * g + k * k
    if denom == 0:
        return complex(np.inf)
    return branch_point_function(g, k) / denom


def newton_correct(parity: Parity, g, k0, *, tol, max_iter: int = 5):
    """Newton iteration on the residual in k at fixed complex g.

    Returns (k, scaled_residual, converged).  Brief and damped: the
    caller owns step-size control and treats non-convergence as the
    signal to shrink.  A start point with |Im pi k/2| above DEEP_IM_H
    is corrected through the overflow-safe `residual_terms`; the Newton
    step is the same, since r and dr carry the same factor.  An
    unscaled call whose iterates drift past DEEP_IM_H stays finite:
    the unscaled terms overflow only near |Im pi k/2| = 709.
    """
    k = complex(k0)
    deep = abs(0.5 * np.pi * k.imag) > DEEP_IM_H
    terms = residual_terms if deep else unscaled_residual_terms
    for _ in range(max_iter):
        r, dr, scale, lf = terms(parity, g, k)
        if abs(r) / scale < tol:
            return k, float(abs(r) / scale), True
        if dr == 0:
            break
        step = r / dr
        for _ in range(4):
            trial = k - step
            if deep:
                r_t, _, _, lf_t = residual_terms(parity, g, trial)
                if _no_larger(r_t, lf_t, abs(r), lf):
                    break
            elif abs(bethe_residual(parity, g, trial)) <= abs(r):
                break
            step *= 0.5
        k = k - step
    r, _, scale, _ = terms(parity, g, k)
    scaled = float(abs(r) / scale)
    return k, scaled, scaled < tol


def _no_larger(r_trial, lf_trial, size, lf):
    """Whether the true |r_trial| is at most the true size, given kernel
    values with log factors lf_trial and lf: both taken at one scale."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(r_trial) * np.exp(lf_trial - lf) <= size


def newton_correct_array(parity: Parity, g, k0, *, tol, max_iter: int = 5):
    """`newton_correct` applied to every element of an array of points.

    g broadcasts against k0.  Each element follows the scalar rule: it
    stops once its scaled residual is below tol or its derivative
    vanishes, and otherwise takes a Newton step halved at most four
    times while the residual grows.  Stopped elements are frozen, so
    each iteration works only on the rest.  Returns (k, scaled_residual,
    converged) arrays of the broadcast shape.

    Whether to evaluate through the overflow-safe `residual_terms` is
    decided once per call: only when some start point has
    |Im pi k/2| above DEEP_IM_H, so calls away from the deep bound
    branch run the unscaled operations.  In either mode every element with
    |Im pi k/2| <= DEEP_IM_H sees the unscaled values; deep elements
    compare a trial residual with the current one at one scale,
    |r_trial| exp(lf_trial - lf) <= |r|.

    On a single point its per-call overhead makes it about four times
    slower than `newton_correct`, so scalar callers keep that one.
    """
    g, k = np.broadcast_arrays(np.asarray(g, dtype=complex),
                               np.asarray(k0, dtype=complex))
    shape = k.shape
    g = g.ravel()
    k = k.ravel().copy()
    scaled = np.empty(k.size)
    converged = np.zeros(k.size, dtype=bool)
    live = np.arange(k.size)
    deep = k.size > 0 and 0.5 * np.pi * float(np.abs(k.imag).max()) > DEEP_IM_H
    terms = residual_terms if deep else unscaled_residual_terms
    # max_iter Newton steps; the extra sweep only measures the last iterate
    for sweep in range(max_iter + 1):
        gl, kl = g[live], k[live]
        r, dr, scale, lf = terms(parity, gl, kl)
        s = np.abs(r) / scale
        scaled[live] = s
        done = s < tol
        converged[live[done]] = True
        if sweep == max_iter:
            break
        go = ~done & (dr != 0)
        live, gl, kl, r, dr = live[go], gl[go], kl[go], r[go], dr[go]
        if deep:
            lf = lf[go]
        if live.size == 0:
            break
        with np.errstate(invalid="ignore"):
            step = r / dr
        size = np.abs(r)
        damp = np.arange(live.size)  # positions still halving their step
        for _ in range(4):
            if damp.size == 0:
                break
            trial = kl[damp] - step[damp]
            if deep:
                r_t, _, _, lf_t = residual_terms(parity, gl[damp], trial)
                worse = ~_no_larger(r_t, lf_t, size[damp], lf[damp])
            else:
                worse = ~(np.abs(bethe_residual(parity, gl[damp], trial)) <= size[damp])
            damp = damp[worse]
            step[damp] *= 0.5
        k[live] = kl - step
    return k.reshape(shape), scaled.reshape(shape), converged.reshape(shape)


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


def continue_along(start: BetheState, path: ComplexPath, *,
                   tol: float = 1e-12, accept: float = 1e-10,
                   newton_max: int = 5, dkj_threshold: float = 1e-4,
                   record: bool = True) -> ContinuationTrace:
    """Continue a quasi-momentum branch along a piecewise-linear path.

    The path must begin at the state's coupling.  Steps adapt between
    the path's min_step and max_step: Newton failure or branch-point
    proximity (|dJ/dk| < dkj_threshold) shrinks, easy convergence grows.
    Hitting min_step ends the trace with ABORTED_NEAR_BRANCH_POINT and
    the last good sample; callers that intend to encircle a branch
    point must route around it rather than through.  When the scaled
    residual at the failed step is not finite (beyond |k| of about 1e154
    even the rescaled error scale overflows) the status is
    ABORTED_RESIDUAL_OVERFLOW instead, since no branch point need be near.
    """
    if abs(complex(path.waypoints[0]) - complex(start.g)) > 1e-12:
        raise ValueError("path must start at the state's coupling")
    parity = start.parity
    g = complex(start.g)
    k = complex(start.k)
    samples = [ContinuationSample(g, k, float(start.scaled_residual()))]
    trace = ContinuationTrace(start, samples)

    for seg_a, seg_b in path.segments():
        seg_len = abs(seg_b - seg_a)
        direction = (seg_b - seg_a) / seg_len
        s = 0.0  # arclength progressed on this segment
        h = min(path.max_step, seg_len)
        while s < seg_len:
            h = min(h, seg_len - s)
            g_new = seg_a + (s + h) * direction
            k_pred = k + h * direction * tangent_slope(g, k)
            k_new, scaled, ok = newton_correct(parity, g_new, k_pred,
                                               tol=tol, max_iter=newton_max)
            ok = ok or scaled < accept
            if ok and abs(dj_dk(g_new, k_new)) < dkj_threshold:
                ok = False  # too close to a branch point: refine first
            if ok:
                s += h
                g, k = g_new, k_new
                if record:
                    samples.append(ContinuationSample(g, k, scaled))
                h = min(h * path.grow, path.max_step)
            else:
                h *= path.shrink
                if h < path.min_step:
                    if np.isfinite(scaled):
                        trace.status = TraceStatus.ABORTED_NEAR_BRANCH_POINT
                        trace.note = (f"step underflow near a branch point at "
                                      f"g={g_new:.6g} (|dJ/dk|={abs(dj_dk(g, k)):.3g})")
                    else:
                        trace.status = TraceStatus.ABORTED_RESIDUAL_OVERFLOW
                        trace.note = (f"residual overflow at g={g_new:.6g} "
                                      f"(k={k:.6g}, residual scale beyond the double range)")
                    if not record:
                        samples.append(ContinuationSample(g, k, float('nan')))
                    return trace
        if not record:
            samples.append(ContinuationSample(
                g, k, scaled_bethe_residual(parity, g, k)))
    return trace


def continue_to(start: BetheState, g_target, **kw) -> ContinuationTrace:
    """Straight-line continuation from the state's coupling to g_target."""
    path_kw = {k: kw.pop(k) for k in ("max_step", "min_step", "shrink", "grow")
               if k in kw}
    path = line_path(start.g, g_target, **path_kw)
    return continue_along(start, path, **kw)


def sheet_value(n: int, g, **kw) -> complex:
    """k_n(g) on the standard sheet (vertical continuation from Re g)."""
    g = complex(g)
    anchor = solve_k_real(n, g.real)
    if g.imag == 0.0:
        return anchor.k
    trace = continue_to(anchor, g, record=False, **kw)
    if trace.status is not TraceStatus.COMPLETED:
        raise SolverError(
            f"vertical continuation aborted: {trace.note}",
            g=trace.final_g, k=trace.final_k,
        )
    return trace.final_k


def conjugation_symmetry_check(n: int, g, *, tol: float = 1e-8, **kw) -> int:
    """Sign s in conj(k_n(conj(g))) = s * k_n(g) on the standard sheet.

    Returns +1 or -1; raises SolverError if either value is unreachable
    by vertical continuation or if neither sign matches within tol.
    """
    g = complex(g)
    k_here = sheet_value(n, g, **kw)
    k_mirror = sheet_value(n, g.conjugate(), **kw)
    scale = max(1.0, abs(k_here))
    if abs(k_mirror.conjugate() - k_here) < tol * scale:
        return +1
    if abs(k_mirror.conjugate() + k_here) < tol * scale:
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
    continuation; 201 x 201 on [-8, 2] x [-5, 5] reproduces the default
    survey window.
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

    def value(self, i: int, j: int) -> complex:
        return complex(self.k[i, j])


def _advance_column_scalar(parity, x, k0, y0, y1, *, tol, min_step, depth=0):
    """Continue one column value from x+iy0 to x+iy1, bisecting on failure."""
    g0, g1 = complex(x, y0), complex(x, y1)
    k_pred = k0 + (g1 - g0) * tangent_slope(g0, k0)
    k_new, scaled, ok = newton_correct(parity, g1, k_pred, tol=tol, max_iter=6)
    if ok:
        return k_new
    if abs(y1 - y0) * 0.5 < min_step or depth > 60:
        return None
    mid = 0.5 * (y0 + y1)
    k_mid = _advance_column_scalar(parity, x, k0, y0, mid, tol=tol,
                                   min_step=min_step, depth=depth + 1)
    if k_mid is None:
        return None
    return _advance_column_scalar(parity, x, k_mid, mid, y1, tol=tol,
                                  min_step=min_step, depth=depth + 1)


def _march_half(parity, xs, k_anchor, ordinates, *, tol, min_step, k_out, rows):
    """March all columns from the axis through the given ordinates.

    ordinates are monotone (ascending above the axis, descending below);
    rows[i] is the row index of ordinates[i] in the output array.  Each
    row corrects all live columns in one `newton_correct_array` call;
    columns left above a scaled residual of 1e-9 go to the bisecting
    `_advance_column_scalar`, and those that fail there too abort.
    """
    n_cols = xs.size
    k_cur = k_anchor.astype(complex).copy()
    y_cur = np.zeros(n_cols)
    alive = np.array([not np.isnan(kv.real) for kv in k_cur])
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
        for pos, col in enumerate(idx_alive):
            if ok[pos]:
                k_cur[col] = k_new[pos]
            else:
                rescued = _advance_column_scalar(parity, xs[col], k_cur[col],
                                                 y_cur[col], y, tol=tol,
                                                 min_step=min_step)
                if rescued is None:
                    alive[col] = False
                    abort_at[int(col)] = float(y)
                    continue
                k_cur[col] = rescued
        y_cur[alive] = y
        k_out[row, alive] = k_cur[alive]
    return abort_at


def build_sheet(n: int, grid: GridSpec, *, tol: float = 1e-12,
                min_step: float = 1e-7, ep_finder=None,
                cut_depth_margin: float = 1.5) -> RiemannSheet:
    """Construct one branch's Riemann sheet over a rectangular grid.

    Each column is anchored at its real-axis value and continued
    vertically both ways.  Columns whose continuation runs into a
    branch point are marked incomplete from that ordinate outward and
    recorded in aborted_columns.  Cut segments are attached from the
    branch-point catalog: the sheet's own collision points for n > 1,
    every partner collision for the bound labels n in {0, 1}, their
    upper-half mirror images, and the real-axis degeneracy of the
    bound label (cut running upward).

    ep_finder is injected to avoid a circular import: it maps a level
    label to its complex branch point (see exceptional_points.find_ep);
    None skips exceptional cut bookkeeping and records only the
    real-axis cut.
    """
    parity = Parity.of_level(n)
    xs = grid.re_axis
    ims = grid.im_axis
    k_out = np.full((ims.size, xs.size), np.nan + 1j * np.nan, dtype=complex)

    axis_k = np.empty(xs.size, dtype=complex)
    aborted = {}
    for j, x in enumerate(xs):
        try:
            axis_k[j] = solve_k_real(n, float(x)).k
        except (SolverError, ValueError):
            axis_k[j] = np.nan + 1j * np.nan
            aborted[j] = 0.0
    # real branch point exactly on a column: the anchor is degenerate
    rbp = parity.real_branch_point
    if n == parity.bound_level:
        on_bp = np.isclose(xs, rbp, rtol=0.0, atol=1e-12) & (np.abs(axis_k) < 1e-9)
        for j in np.flatnonzero(on_bp):
            axis_k[j] = np.nan + 1j * np.nan
            aborted[j] = 0.0

    if np.any(ims == 0.0):
        k_out[np.flatnonzero(ims == 0.0)[0], :] = axis_k

    above = np.flatnonzero(ims > 0.0)
    below = np.flatnonzero(ims < 0.0)[::-1]
    aborted_up = _march_half(parity, xs, axis_k, ims[above], tol=tol,
                             min_step=min_step, k_out=k_out, rows=above)
    aborted_dn = _march_half(parity, xs, axis_k, ims[below], tol=tol,
                             min_step=min_step, k_out=k_out, rows=below)
    for col, y in list(aborted_up.items()) + list(aborted_dn.items()):
        aborted.setdefault(col, y)

    cuts = []
    if ep_finder is not None:
        if n > 1:
            partner_levels = [n]
        else:
            partner_levels = []
            m = n + 2
            while (m - 1) <= abs(grid.im_min) + cut_depth_margin:
                partner_levels.append(m)
                m += 2
        for m in partner_levels:
            try:
                bp = complex(ep_finder(m))
            except RuntimeError:
                # a missing catalog entry costs one cut, not the sheet
                continue
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
