"""D-functions, the gauge connection, and parallel-transport holonomy.

The connection governing adiabatic transport of the two-body levels in
the coupling plane has the closed form

    A[i, j] = -i * (4/pi) * D_i * D_j / (k_i**2 - k_j**2),   A[i, i] = 0

in the PT normalization of :mod:`lieb2b.eigensystem`, where

    D_n = d_n * k_n / sqrt(r_n),    r = k**2 + g**2 + 2 g / pi,
    d_n = (-1)**floor(n / 2).

Levels of opposite parity live in different center-of-mass momentum
sectors, so the connection is block diagonal in parity and a truncation
keeps one parity family: levels n_b, n_b + 2, ... for base n_b in {0, 1}.

``r`` vanishes exactly at the square-root branch points of the spectrum,
so the branch of sqrt(r) is bookkeeping that matters.  Two regimes are
kept strictly apart:

* point evaluation on the real axis takes every level's sqrt(r) in the
  one window of :func:`lieb2b.bethe.rotated_sqrt`: there r > 0 for the
  labels n >= 2, where it is the principal root, and the real-axis
  bound branch (r < 0) carries sqrt(r) = -i sqrt(|r|);
* transport tracks sqrt(r) by continuity along the path, slot by slot,
  together with the quasi-momenta (:class:`TransportFrame`), because a
  loop around a branch point flips the sign of sqrt(r) and a fixed
  window would make the connection jump mid-path.

Transport solves dV/dt = B V, B = -i * A(g(t)) * g'(t), V(0) = 1 along
piecewise-linear paths as an ordered exponential, one sixth-order
Magnus step V <- exp(Omega) V at a time: Omega comes from B at three
Gauss-Legendre nodes and their commutators, and its excess over the
fourth-order Omega of the same nodes, formed directly rather than as a
difference of the two, sets the step size (Blanes, Casas & Ros, BIT 40,
434 (2000)).  exp(Omega) is taken by scaling and squaring (Higham
2005): a Taylor polynomial of Omega / 2**s, whose 1-norm theta is below
1/4, of the least degree m <= 12 with theta**(m + 1) / (m + 1)! below
3e-18, degree 12's bound at 1/4; a step's Omega, of 1-norm about 0.03
on the benchmark's loops, takes degree 8.  A has a zero diagonal, so B
and every Omega are traceless and det V = 1 to round-off on any path.
Steps are hops of :func:`lieb2b.continuation.walk_path`, which lands
them on each path corner exactly, carries the step size over it, and
hands a hop up to 16 step ends at once where corners clip the steps.
A hop moves every slot of the frame to the three nodes and the end of
each of its steps, at most 64 points, in one call of
:func:`lieb2b.bethe.newton_correct_with_step`, each point predicted
from the tangent at the hop's start.  It estimates
the branch distance at all its step ends at once, evaluates the
connection at every node in one :func:`connection_matrix` call, and
forms all its Omegas.  It then takes the steps in order while each
passes its error test and all its points are safe: no slot leaves its
Newton basin or its sqrt(r) branch.  A step that fails at the hop's
start is rejected, halved after an unsafe point or shortened by the
error rule; one that fails later ends the hop, and the next hop tries
it again from its own start.  The frame walks of :func:`advance_frame`
and :func:`frame_monodromy` are these hops without the Magnus algebra,
and every walk, transport's too, steps no farther than a local estimate
of the distance to the nearest branch point, which the frame reads off
r and its slope: k_n(g) is analytic in the disc that reaches that
point.  The returned matrix is V at the path end, nothing folded in:
columns expand the transported slots over the starting slots, and
transports over concatenated paths compose by left multiplication.  For
a small clockwise loop around the branch point joining level n to its
bound-capable partner n_b this converges, as the radius shrinks, to the
elementary monodromy

    M[n_b, n] = d_n,   M[n, n_b] = -d_n,

identity elsewhere (:func:`m_n_analytic`).  The orientation and index
convention are anchored by the first even case: around that branch
point, e_0 -> +e_2 and e_2 -> -e_0, i.e. M[2, 0] = +1, M[0, 2] = -1.

Transport and :func:`frame_monodromy` start from :func:`entry_frame`:
the frame continued vertically from the real axis, as sheets are,
reached along a corridor homotopic to that segment that leans clear of
the exceptional points the segment passes close beside.

A loop's signed permutation is read one way only: its end frame is
matched to its start frame (:func:`match_frames`), giving the level each
slot returns to and its sign exactly.  Transport reads it from its own
frames; :func:`frame_monodromy` walks the frame alone, without the ODE.
The two routes are independent checks of one another.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .bethe import (COUPLING_LIMIT, RESIDUAL_TARGET, Parity, SolverError,
                    branch_point_function, check_coupling, is_label,
                    newton_correct_with_step, real_axis_k, rotated_sqrt)
from .continuation import (STEP_GROWTH, ComplexPath, circle_path, family_eps,
                           tangent_slope, walk_path)
from .eigensystem import normalization_pt
from .exceptional import ExceptionalPoint, ExceptionalPointError, find_ep

FOUR_OVER_PI = 4.0 / np.pi

MIN_LOOP_RADIUS = 1e-4

#: a quasi-momentum gap below this puts the connection at an exceptional point
GAP_TOL = 1e-6
#: relative tolerance of a Magnus step, the default of `transport`
TRANSPORT_RTOL = 1e-10
#: steps a frame walk's hop takes at most: its corrector run holds four points a step
_RUN_STEPS = 16


class TransportError(RuntimeError):
    """Transport could not advance without losing a branch or a root."""


class ConnectionProximityError(TransportError):
    """Connection evaluation rejected: two levels nearly degenerate."""


class TruncationWarning(UserWarning):
    """The top retained level couples strongly; results may be truncated."""


@dataclass(frozen=True)
class TruncationSpec:
    """One parity family truncated to its lowest ``n_levels`` members."""

    parity: Parity
    n_levels: int

    def __post_init__(self):
        if not isinstance(self.parity, Parity):
            raise ValueError(f"parity must be a Parity, got {self.parity!r}")
        if not (isinstance(self.n_levels, numbers.Integral) and self.n_levels >= 2):
            raise ValueError(f"n_levels must be an integer >= 2, got {self.n_levels!r}")

    @property
    def base(self) -> int:
        return 0 if self.parity is Parity.EVEN else 1

    @property
    def levels(self) -> tuple:
        return tuple(self.base + 2 * i for i in range(self.n_levels))

    def slot(self, n: int) -> int:
        """Index of level n inside the truncation; n must be a label
        (`is_label`: an integer, never a bool)."""
        if is_label(n):
            i, rem = divmod(n - self.base, 2)
            if not rem and 0 <= i < self.n_levels:
                return i
        raise ValueError(f"level {n!r} is not in this truncation")


@dataclass(frozen=True)
class HolonomyMatrix:
    """A transport or monodromy matrix over one truncated family.

    Entry (i, j) is the coefficient of starting slot i in the
    transported slot j; later loops multiply from the left.  When the
    matrix came from transport it is V, nothing folded in; ``steps``
    counts the Magnus steps taken and ``rejected`` the steps refused at
    the start of a hop, by an unsafe point or by the error test.  A step
    cut from the end of a hop is tried again by the next one and is not
    counted as rejected.  ``monodromy`` is a closed path's signed
    permutation in the same layout, None for an open path.
    """

    truncation: TruncationSpec
    matrix: np.ndarray
    steps: int = 0
    rejected: int = 0
    monodromy: np.ndarray | None = None

    def entry(self, n_row: int, n_col: int) -> complex:
        """Matrix entry addressed by level labels instead of slots."""
        t = self.truncation
        return complex(self.matrix[t.slot(n_row), t.slot(n_col)])


def d_sign(n):
    """Alternating sign d_n = (-1)**floor(n/2), elementwise on an
    integer array of levels."""
    return 1 - 2 * (n // 2 % 2)


def d_function(n: int, g, k) -> complex:
    """Standard-sheet D_n at the point (g, k) of level n's surface.  At a
    branch point, where r = 0 leaves D = k / sqrt(r) undefined, it raises
    ValueError."""
    r = branch_point_function(g, k)
    if r == 0:
        raise ValueError(f"(g, k) = ({g}, {k}) sits at a branch point of level {n}, r = 0")
    return d_sign(n) * k / rotated_sqrt(r)


def d_function_trig(n: int, g, k) -> complex:
    """D_n in its trigonometric form, an independent route to the value.

    trig(pi k / 2) * a(k) / sqrt(2) with the parallel-transport
    normalization a(k) = sqrt(2) (1 +- sinc(k))**(-1/2) and trig = cos,
    sin for even, odd n; the sign rides on the trig factor.  On shell
    1 +- sinc(k) equals trig**2 * r / k**2, so the square root in a(k)
    takes the same window, `rotated_sqrt`.
    """
    parity = Parity.of_level(n)
    h = 0.5 * np.pi * k
    trig = np.cos(h) if parity is Parity.EVEN else np.sin(h)
    return trig * normalization_pt(parity, k) / np.sqrt(2.0)


def connection_matrix(levels, d_values, k_values):
    """Connection from precomputed D and k slot vectors.

    All levels must share one parity.  D and k may carry leading axes,
    one set of slots per point; the result then has those axes in front
    of its two slot axes.  A quasi-momentum gap below ``GAP_TOL`` means
    an evaluation point sits essentially at an exceptional point of
    that pair, where the connection diverges.
    """
    levels = tuple(levels)
    d = np.asarray(d_values, dtype=complex)
    k = np.asarray(k_values, dtype=complex)
    diag = np.arange(k.shape[-1])
    gaps, (first, second) = _pair_gaps(k)
    if gaps.size and gaps.min() < GAP_TOL:
        *_, pair = idx = np.unravel_index(np.argmin(gaps), gaps.shape)
        i, j = first[pair], second[pair]
        raise ConnectionProximityError(
            f"levels {levels[i]} and {levels[j]} are quasi-degenerate "
            f"(|k_{levels[i]} - k_{levels[j]}| = {gaps[idx]:.3e})")
    denom = k[..., :, None] ** 2 - k[..., None, :] ** 2
    denom[..., diag, diag] = 1.0
    a = -1j * FOUR_OVER_PI * d[..., :, None] * d[..., None, :] / denom
    a[..., diag, diag] = 0.0
    return a


#: the slot pairs i < j of m slots, `np.triu_indices(m, 1)`, kept per m
_slot_pairs = functools.cache(functools.partial(np.triu_indices, k=1))


def _pair_gaps(k):
    """|k_i - k_j| over the slot pairs i < j of k's last axis, and those
    pairs (`_slot_pairs`)."""
    pairs = first, second = _slot_pairs(k.shape[-1])
    return np.abs(k[..., first] - k[..., second]), pairs


def gauge_connection(g: float, trunc: TruncationSpec):
    """Standard-sheet gauge connection of one truncated family at real g:
    the connection of `frame_at`.  Off the real axis use the
    :class:`TransportFrame` of a continued path instead.
    """
    if np.iscomplexobj(g) and complex(g).imag != 0.0:
        raise ValueError("gauge_connection needs a real coupling")
    return frame_at(trunc, float(np.real(g))).connection()


@dataclass(frozen=True)
class TransportFrame:
    """Branch-tracked slot data at one point of a transport path.

    Slot i starts out as level ``levels[i]``: it carries that surface's
    quasi-momentum and the continued value of sqrt(r).  Frames advance
    by continuity, so after a loop around a branch point the slots may
    hold values belonging to a permuted set of standard-sheet levels.
    """

    levels: tuple
    g: complex
    k: np.ndarray
    sqrt_r: np.ndarray

    def d_values(self):
        return d_sign(np.array(self.levels)) * self.k / self.sqrt_r

    def connection(self):
        return connection_matrix(self.levels, self.d_values(), self.k)


def frame_at(trunc: TruncationSpec, g: float) -> TransportFrame:
    """Standard-sheet frame on the real coupling axis.  Within 1e-9 of
    the family's real branch point, where k = 0 and r = 0 leave
    D = k / sqrt(r) undefined, it raises ValueError."""
    if abs(g - trunc.parity.real_branch_point) < 1e-9:
        raise ValueError(f"g = {g} sits at the family's real branch point")
    levels = trunc.levels
    k = real_axis_k(levels, g)
    if np.isnan(k).any():
        raise SolverError(f"no real-axis root for levels {levels} at g={g}", g=g)
    return TransportFrame(levels, complex(g), k,
                          rotated_sqrt(branch_point_function(g, k)))


def entry_frame(trunc: TruncationSpec, g0: complex) -> TransportFrame:
    """Standard-sheet frame at g0: off the axis, the frame continued
    vertically from the real axis at Re g0 (a ValueError within 1e-9 of
    the real branch point's Re).  The walk runs straight to g0 from the
    axis at Re g0 - s |Im g0|, leaning left by `_corridor_slope`: no
    branch point lies between that corridor and the vertical segment, so
    both reach the same frame.  A start reached through a different
    corridor needs an explicitly continued frame."""
    g0 = complex(g0)
    if abs(g0.imag) < 1e-14 or abs(g0.real - trunc.parity.real_branch_point) < 1e-9:
        return frame_at(trunc, g0.real)  # the axis frame, or its ValueError
    check_coupling(g0)
    x0 = max(g0.real - _corridor_slope(trunc.parity, g0) * abs(g0.imag), -COUPLING_LIMIT)
    if abs(x0 - trunc.parity.real_branch_point) < 1e-9:
        x0 = g0.real  # `frame_at` refuses x0, not Re g0, so walk vertically
    return advance_frame(frame_at(trunc, x0), g0)


def _corridor_slope(parity: Parity, g0: complex) -> float:
    """The lean s of `entry_frame`'s corridor to g0: half the least slope
    (Re g0 - Re p) / (|Im g0| - |Im p|) over the real branch point and the
    points p of `family_eps` (mirrored for Im g0 > 0) shallower than g0 and
    not right of it, at most 1/2; 0 if the ladder walk fails."""
    x, y = g0.real, abs(g0.imag)
    try:
        points = [ep.g_ep for ep in family_eps(parity, y)]
    except ExceptionalPointError:
        return 0.0
    slopes = [(x - p.real) / (y + p.imag)
              for p in points + [complex(parity.real_branch_point)]
              if p.real <= x and -p.imag < y]
    return min(0.5, 0.5 * min(slopes, default=1.0))


def _advance_run(frame: TransportFrame, g_points, tol: float):
    """Every slot of ``frame`` moved to each coupling of the run
    g_1..g_S: (k, sqrt_r) of shape (P, m) at the run's safe prefix, the
    points g_1..g_P before the first unsafe one.

    A truncation is one parity family, so a single array corrector call
    covers the run: g of shape (S, 1) against k of shape (S, m), each
    point predicted from the tangent at ``frame``.  Each point then takes
    the Newton step r/dr the corrector returns, which tightens the far
    points without a tighter tol, and is checked against the one before
    it (``frame`` for the first): it is unsafe when a slot fails to
    converge, moves by more than 0.35 of the previous level spacing (it
    may have jumped basins), or when the continued sqrt(r), signed by
    continuity, is about equally far from both signs of its previous
    value.
    """
    parity = Parity.of_level(frame.levels[0])
    g = np.asarray(g_points, dtype=complex)[:, None]
    k_pred = frame.k + (g - frame.g) * tangent_slope(frame.g, frame.k)
    k, _, ok, step = newton_correct_with_step(parity, g, k_pred, tol=tol)
    p = _leading(ok.all(axis=1))
    g, k = g[:p], k[:p] - step[:p]
    k_before = np.concatenate([frame.k[None], k])[:-1]
    jumped = np.abs(k - k_before) > 0.35 * _pair_gaps(k_before)[0].min(axis=1)[:, None]
    s = np.sqrt(branch_point_function(g, k))
    s_before = np.concatenate([frame.sqrt_r[None], s])[:-1]
    kept, flipped = np.abs(s - s_before), np.abs(s + s_before)
    flip = kept > flipped
    # unsafe when both signs are about equally far: the branch has
    # rotated too much to track from one point to the next
    lost = np.minimum(kept, flipped) > 0.6 * (np.abs(s) + np.abs(s_before))
    # each point's sign is relative to the one before, so the signs chain
    s = s * np.cumprod(np.where(flip, -1.0, 1.0), axis=0)
    p = _leading(~(jumped | lost).any(axis=1))
    return k[:p], s[:p]


def _leading(mask) -> int:
    """How many leading entries of a boolean vector are True."""
    return mask.size if mask.all() else int(mask.argmin())


#: a step's Gauss-Legendre nodes, as fractions of the step
_GAUSS_NODES = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)


def _run_steps(frame: TransportFrame, ends, tol: float):
    """The steps from ``frame.g`` through ``ends`` in one `_advance_run` of
    each step's three Gauss nodes and its end: (dg, k, sqrt_r) of the leading
    steps whose four points are all safe, k and sqrt_r of shape (n, 4, m)."""
    g = np.array(ends, dtype=complex)
    starts = np.append(frame.g, g[:-1])
    dg = g - starts
    nodes = starts[:, None] + np.multiply.outer(dg, _GAUSS_NODES)
    k, sqrt_r = _advance_run(frame, np.column_stack([nodes, g]).ravel(), tol)
    n, m = len(k) // 4, len(frame.levels)
    return dg[:n], k[:4 * n].reshape(n, 4, m), sqrt_r[:4 * n].reshape(n, 4, m)


def _branch_distance(g, k):
    """Local estimate of the distance from each coupling g to the nearest
    branch point of the slots in its row of k.  Near a square-root branch
    point r behaves like (g - g_ep)**(1/2), so |r / (2 dr/dg)| tends to
    |g - g_ep|; with dr/dg = 2 k k' + 2 g + 2/pi and k' = 2 k / (pi r),
    `tangent_slope`'s, that is |r|**2 / |8 k**2 / pi + 4 (g + 1/pi) r|.
    Returns each row's least ratio over the slots whose ratio is finite,
    or inf where that is not positive: a slot at r = 0 has ratio 0."""
    # a coupling's own terms in scalar arithmetic, as `branch_point_function`
    # takes them at one coupling: numpy's vectorised arithmetic rounds otherwise
    g_terms = np.array([(x * x, 2.0 * x / np.pi, 4.0 * (x + 1.0 / np.pi)) for x in g])
    r = k * k + g_terms[:, :1] + g_terms[:, 1:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(r) ** 2 / np.abs(8.0 / np.pi * k ** 2 + g_terms[:, 2:] * r)
    d = np.fmin.reduce(ratio, axis=1, initial=np.inf)  # fmin skips NaN
    return np.where(r.all(axis=1) & (d > 0.0), d, np.inf)


def _kept_factor(g, k, steps) -> list:
    """The factor min(STEP_GROWTH, `_branch_distance` at the end / the step)
    after each kept step, ending at g with a row of k; a step of 0 grows."""
    return [STEP_GROWTH if d >= STEP_GROWTH * step else d / step
            for d, step in zip(_branch_distance(g, k).tolist(), steps)]


def _walk_branches(waypoints, frame: TransportFrame, state, hop):
    """`walk_path` of ``state`` from ``frame`` by every frame walk's step
    rule: the first step spans `_branch_distance` at ``frame``, each hop
    is offered at most _RUN_STEPS step ends, the hops grow a kept step by
    `_kept_factor`, and the walk gives up below 2**-48 of the path length."""
    length = sum(abs(b - a) for a, b in zip(waypoints, waypoints[1:]))
    return walk_path(waypoints, state, hop, h=_branch_distance([frame.g], frame.k[None]).item(),
                     min_step=length * 2.0 ** -48, lookahead=_RUN_STEPS)


def _walk_frame(frame: TransportFrame, waypoints) -> TransportFrame:
    """Continue a frame along the polyline from ``frame.g`` through
    ``waypoints``, whose first point is the frame's own.

    A hop is transport's without the Magnus algebra: it keeps every
    step of `_run_steps`, or halves a first step that fails, and steps
    by `_walk_branches`' rule, so a hop takes at most _RUN_STEPS steps,
    as transport's does.  Each kept step leaves every slot, corrected to
    RESIDUAL_TARGET, in its own Newton basin and on its own sqrt(r)
    branch from point to point.
    """
    def hop(f, ends):
        dg, k, sqrt_r = _run_steps(f, ends, RESIDUAL_TARGET)
        if not len(k):
            return [(None, False, 0.5)]
        factors = _kept_factor(ends[:len(k)], k[:, 3], np.abs(dg))
        return [(TransportFrame(f.levels, g, k_end, s_end), True, factor)
                for g, k_end, s_end, factor in zip(ends, k[:, 3], sqrt_r[:, 3], factors)]

    end, reached, _ = _walk_branches(waypoints, frame, frame, hop)
    if not reached:
        raise TransportError(f"frame walk stalled between {end.g} and {waypoints[-1]}")
    return end


def advance_frame(frame: TransportFrame, g_target: complex) -> TransportFrame:
    """Continue a frame along the straight segment to ``g_target``: the
    frame walker on (frame.g, g_target).  Its basin rule needs the base
    level beside any slot that passes its branch point, so a frame that
    is not a truncation's (levels n_b, n_b + 2, ...) is a ValueError."""
    family = TruncationSpec(Parity.of_level(frame.levels[0]), len(frame.levels))
    if frame.levels != family.levels:
        raise ValueError(f"frame levels {frame.levels} are not the lowest of their family")
    target = complex(g_target)
    check_coupling(target)
    return _walk_frame(frame, (frame.g, target))


TAIL_ROW_BOUND = 0.25
#: Magnus-step absolute tolerance and step budget
MAGNUS_ATOL, MAGNUS_MAX_STEPS = 1e-13, 200000


def _commutator(x, y):
    c = x @ y
    c -= y @ x
    return c


def _magnus(b):
    """Each step's sixth-order Magnus Omega, and its excess over the
    fourth-order Omega of the same nodes, the error matrix: from B times
    the step at the step's three Gauss nodes, b of shape (n, 3, m, m)."""
    b1, a1, b3 = b[:, 0], b[:, 1], b[:, 2]
    a2 = np.subtract(b3, b1)
    a2 *= np.sqrt(15.0) / 3.0
    a3 = np.multiply(a1, -2.0)
    a3 += b3
    a3 += b1
    a3 *= 10.0 / 3.0
    c1 = _commutator(a1, a2)
    u = np.multiply(a3, 2.0)
    u += c1
    c2 = _commutator(a1, u)
    c2 /= -60.0
    c2 += a2
    np.multiply(a1, -20.0, out=u)
    u -= a3
    u += c1
    # Omega6 = a1 + a3 / 12 + [-20 a1 - a3 + c1, a2 + c2] / 240, and
    # Omega4 = a1 + a3 / 12 - c1 / 12: their difference is taken directly,
    # not as a difference of the two sums
    error = _commutator(u, c2)
    error /= 240.0
    omega = np.divide(a3, 12.0, out=a3)
    omega += a1
    omega += error
    c1 /= 12.0
    error += c1
    return omega, error


#: the tail bound of `_expm`'s Taylor polynomials, degree 12's at 1-norm 1/4
_TAYLOR_TAIL = 3e-18
#: the 1-norm below which degree m meets the tail bound, for m = 0..11
_TAYLOR_NORMS = np.array([(_TAYLOR_TAIL * math.factorial(m + 1)) ** (1.0 / (m + 1))
                          for m in range(12)])


def _taylor_degree(theta):
    """The least Taylor degree m <= 12 whose tail bound theta**(m + 1) /
    (m + 1)! stays below `_TAYLOR_TAIL` at each 1-norm theta < 1/4."""
    return np.searchsorted(_TAYLOR_NORMS, theta, side="right")


def _expm(x):
    """exp(x) by scaling and squaring (Higham 2005): the Taylor polynomial
    of y = x / 2**s, whose 1-norm is below 1/4, of `_taylor_degree`, by
    Horner.  On a stack of matrices each takes its own s and degree: a
    matrix of lower degree joins the Horner steps at its own, and until
    then it multiplies by 0 and stays exactly 1."""
    m = x.shape[-1]
    stack = x.reshape(-1, m, m)
    norm = np.linalg.norm(stack, 1, axis=(-2, -1))
    s = np.maximum(0, np.frexp(4.0 * norm)[1])
    degree = _taylor_degree(norm / 2.0 ** s)
    y = stack / (2.0 ** s)[:, None, None]
    joined = np.zeros_like(y)
    e, buf = np.zeros_like(y), np.empty_like(y)
    e_diag, buf_diag = (a.reshape(len(a), m * m)[:, ::m + 1] for a in (e, buf))
    e_diag += 1.0
    starts = set(degree.tolist())
    for j in range(degree.max(), 0, -1):
        if j in starts:
            joins = degree == j
            joined[joins] = y[joins]
        np.matmul(joined, e, out=buf)
        buf /= j
        buf_diag += 1.0
        e, buf, e_diag, buf_diag = buf, e, buf_diag, e_diag
    for i in range(s.max()):
        squared = s > i
        e[squared] = e[squared] @ e[squared]
    return e.reshape(x.shape)


def _tail_row_norms(d, k):
    """Norm of the top level's coupling row of the connection at each
    point, from D and k slot vectors stacked along the last axis."""
    return FOUR_OVER_PI * np.linalg.norm(
        d[..., -1:] * d[..., :-1] / (k[..., -1:] ** 2 - k[..., :-1] ** 2), axis=-1)


def transport(path: ComplexPath, trunc: TruncationSpec, *,
              rtol: float = TRANSPORT_RTOL) -> HolonomyMatrix:
    """Integrate parallel transport of the truncated family along ``path``.

    The walk starts from :func:`entry_frame` at the path start and steps
    by `_walk_branches`' rule, its growth capped by the error estimate.
    The result's matrix is V at the path end with V(0) = 1; a closed
    path's ``monodromy`` matches the end frame to the start frame, where
    a slot that left the truncation is a TransportError.  A warning is
    issued if the top retained level's coupling row grows beyond a bound
    at the start of any step, since then the truncation is feeding back
    into the retained block.
    """
    if not 0.0 < rtol < np.inf:
        raise ValueError(f"transport needs 0 < rtol < inf, got {rtol}")
    levels = trunc.levels
    start = entry_frame(trunc, path.waypoints[0])
    signs, m, tol = d_sign(np.array(levels)), len(levels), min(RESIDUAL_TARGET, rtol)
    rejected = 0

    def hop(state, ends):
        """Magnus steps to the leading ``ends`` from state = (frame, V,
        steps taken, largest tail-row norm at a step start)."""
        nonlocal rejected
        frame, v, steps, tail = state
        dg, k, sqrt_r = _run_steps(frame, ends, tol)
        n = len(dg)
        if n == 0:
            rejected += 1
            return [(None, False, 0.5)]
        d = signs * k / sqrt_r
        b = connection_matrix(levels, d[:, :3], k[:, :3])
        b *= (-1j * dg)[:, None, None, None]
        omega, error = _magnus(b)
        exp6 = _expm(omega)
        factors = _kept_factor(ends[:n], k[:, 3], np.abs(dg))
        tails = _tail_row_norms(np.concatenate([frame.d_values()[None], d[:-1, 3]]),
                                np.concatenate([frame.k[None], k[:-1, 3]]))
        tried = []
        for i in range(n):
            scale = MAGNUS_ATOL + rtol * max(1.0, float(np.max(np.abs(v))))
            err = float(np.max(np.abs(error[i] @ v))) / scale
            if not err <= 1.0:
                if i == 0:
                    rejected += 1
                    return [(None, False, max(0.2, 0.9 * err ** -0.2))]
                break  # the next hop tries this step again from its own start
            if steps + i + 1 + rejected > MAGNUS_MAX_STEPS:
                raise TransportError("step budget exhausted")
            v = exp6[i] @ v
            tail = max(tail, float(tails[i]))
            end = TransportFrame(levels, ends[i], k[i, 3], sqrt_r[i, 3])
            if err > 0:
                factors[i] = min(factors[i], max(0.2, 0.9 * err ** -0.2))
            tried.append(((end, v, steps + i + 1, tail), True, factors[i]))
        return tried

    (frame, v, steps, tail), reached, _ = _walk_branches(
        path.waypoints, start, (start, np.eye(m, dtype=complex), 0, 0.0), hop)
    if tail > TAIL_ROW_BOUND:
        warnings.warn(f"level {levels[-1]} coupling row norm {tail:.3g} "
                      "exceeds the truncation bound, enlarge n_levels",
                      TruncationWarning, stacklevel=2)
    if not reached:
        raise TransportError(f"step size underflow near g = {frame.g}")
    monodromy = _signed_permutation(frame, start) if _is_loop(path) else None
    return HolonomyMatrix(trunc, v, steps=steps, rejected=rejected, monodromy=monodromy)


def match_frames(frame: TransportFrame, reference: TransportFrame):
    """Match frame slots to reference slots by quasi-momentum, to 1e-8.

    Returns (perm, factors): slot i of ``frame`` holds the level sitting
    in slot perm[i] of ``reference``, and its continued normalization
    differs from the standard-sheet one by factors[i] (always +-1).
    Both frames must carry the same levels.
    """
    if frame.levels != reference.levels:
        raise ValueError("frames were built for different truncations")
    if abs(frame.g - reference.g) > 1e-10:
        raise ValueError("frames sit at different couplings")
    m = len(frame.levels)
    perm = np.full(m, -1)
    factors = np.zeros(m, dtype=complex)
    for i in range(m):
        # k and -k describe the same standard level; a slot that wound
        # the real branch point returns with both k and sqrt(r) negated,
        # which leaves its eigenfunction, so match up to that flip
        k_i, s_i = frame.k[i], frame.sqrt_r[i]
        dist_p = np.abs(reference.k - k_i)
        dist_m = np.abs(reference.k + k_i)
        jp, jm = int(np.argmin(dist_p)), int(np.argmin(dist_m))
        if dist_m[jm] < dist_p[jp]:
            j, d = jm, dist_m[jm]
            k_i, s_i = -k_i, -s_i
        else:
            j, d = jp, dist_p[jp]
        if d > 1e-8:
            raise TransportError(
                f"slot {i} landed at k = {frame.k[i]}, no standard level nearby")
        if j in perm[:i]:
            raise TransportError("two slots matched the same level")
        perm[i] = j
        c = (d_sign(frame.levels[i]) / d_sign(reference.levels[j])) \
            * reference.sqrt_r[j] / s_i
        if abs(abs(c) - 1.0) > 1e-6 or abs(c.imag) > 1e-6:
            raise TransportError(f"normalization mismatch factor {c} on slot {i}")
        factors[i] = round(c.real)
    return perm, factors


def _signed_permutation(end: TransportFrame, start: TransportFrame) -> np.ndarray:
    """The signed permutation matrix of a loop from its end and start
    frames: column j holds slot j's sign (`match_frames`) in the row of
    the level it landed on."""
    perm, factors = match_frames(end, start)
    m = len(start.levels)
    w = np.zeros((m, m), dtype=complex)
    w[perm, np.arange(m)] = factors
    return w


def _is_loop(path: ComplexPath) -> bool:
    return abs(path.waypoints[-1] - path.waypoints[0]) <= 1e-12


def frame_monodromy(path: ComplexPath, trunc: TruncationSpec) -> HolonomyMatrix:
    """Discrete monodromy of a closed loop, no differential equation.

    The :func:`entry_frame` at the base point is continued around the
    loop in one frame walk; each slot is then matched back to the
    standard levels there and the residual normalization signs are read
    off.  For a loop around a single branch point this produces the
    elementary monodromy exactly, up to root-finding precision, and
    provides an independent check on :func:`transport`'s ``monodromy``.
    """
    if not _is_loop(path):
        raise ValueError("frame monodromy needs a closed loop")
    start = entry_frame(trunc, path.waypoints[0])
    w = _signed_permutation(_walk_frame(start, path.waypoints), start)
    return HolonomyMatrix(trunc, w, monodromy=w)


def m_n_analytic(n: int, trunc: TruncationSpec) -> HolonomyMatrix:
    """Elementary monodromy of one clockwise loop around level n's branch point.

    Couples level n to the bound-capable base of its family with the
    alternating sign d_n; all other retained levels are spectators.
    """
    i = trunc.slot(trunc.base)
    j = trunc.slot(n)
    if i == j:
        raise ValueError("the base level has no branch point of its own here")
    m = np.eye(trunc.n_levels, dtype=complex)
    d = d_sign(n)
    m[i, i] = m[j, j] = 0.0
    m[i, j], m[j, i] = d, -d
    return HolonomyMatrix(trunc, m)


def m_chain_analytic(m: int, trunc: TruncationSpec) -> HolonomyMatrix:
    """Closed form for the chain of loops around the first m branch points.

    Equal to the ordered product M(n_b + 2m) ... M(n_b + 4) M(n_b + 2):
    each of the first m levels moves up one family slot with coefficient
    +1 and the top of the chain returns to the base slot with the
    accumulated sign (-1)**m.
    """
    if not (isinstance(m, numbers.Integral) and 1 <= m <= trunc.n_levels - 1):
        raise ValueError(f"chain length must be an integer that fits inside the "
                         f"truncation, got {m!r}")
    out = np.eye(trunc.n_levels, dtype=complex)
    out[:m + 1, :m + 1] = np.eye(m + 1, k=-1)
    out[0, m] = (-1.0) ** m
    return HolonomyMatrix(trunc, out)


@dataclass
class EpLoopHolonomy:
    """Transport around one exceptional point, with its analytic target.
    ``defect`` measures transport against M(n) only for radius <
    Re g_ep(n - 2) - Re g_ep(n) (:func:`ep_loop_holonomy`); beyond, about 1."""

    ep: ExceptionalPoint
    truncation: TruncationSpec
    radius: float
    holonomy: HolonomyMatrix
    defect: float


def ep_loop_holonomy(n: int, trunc: TruncationSpec, radius: float = 1e-3, *,
                     rtol: float = TRANSPORT_RTOL, arc_points: int = 48) -> EpLoopHolonomy:
    """Transport once clockwise around level n's branch point.

    The start point g_ep + radius carries standard-sheet values,
    continued straight down from the real axis.  The returned defect is
    the max-norm distance of the raw transport matrix from the
    elementary monodromy; it shrinks with the loop radius.  That target
    holds for n >= n_b + 4 only while radius < Re g_ep(n - 2) - Re g_ep(n)
    (0.259 at n = 4, 0.181 at 5, 0.140 at 6, 0.115 at 7): a wider loop
    starts right of g_ep(n - 2)'s downward cut and exchanges n - 2 with n,
    as its ``monodromy`` reports.  A level outside the truncation is
    refused before the search and transport.
    """
    if not MIN_LOOP_RADIUS <= radius < np.inf:
        raise ValueError(f"loop radius {radius} must be finite and at least the safe "
                         f"floor {MIN_LOOP_RADIUS}")
    trunc.slot(n)
    ep = find_ep(n, verify_unique=False)
    loop = circle_path(ep.g_ep, radius, n_points=arc_points, clockwise=True)
    hol = transport(loop, trunc, rtol=rtol)
    ideal = m_n_analytic(n, trunc).matrix
    defect = float(np.max(np.abs(hol.matrix - ideal)))
    return EpLoopHolonomy(ep, trunc, radius, hol, defect)
