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
Gauss-Legendre nodes and their commutators, and the fourth-order Omega
of the same nodes sets the step size (Blanes, Casas & Ros, BIT 40, 434
(2000)).  A has a zero diagonal, so B and every Omega are traceless and
det V = 1 to round-off on any path.  Each attempted step moves every
slot of the frame to the three nodes and the step end in one call of
the array corrector :func:`lieb2b.bethe.newton_correct_array`,
each point predicted from the tangent at the step's start, and
evaluates their connections in one :func:`connection_matrix` call.  The
step is refused, and halved, when any slot at any point would leave its
Newton basin or its sqrt(r) branch.  Steps are hops of
:func:`lieb2b.continuation.walk_path`, which lands them on each path
corner exactly and carries the step size over it, as are the one-point
hops of :func:`advance_frame`.  The returned matrix is V at
the path end, nothing folded in: columns expand the transported slots
over the starting slots, and transports over concatenated paths compose
by left multiplication.  For a small clockwise loop around the branch
point joining level n to its bound-capable partner n_b this converges,
as the radius shrinks, to the elementary monodromy

    M[n_b, n] = d_n,   M[n, n_b] = -d_n,

identity elsewhere (:func:`m_n_analytic`).  The orientation and index
convention are anchored by the first even case: around that branch
point, e_0 -> +e_2 and e_2 -> -e_0, i.e. M[2, 0] = +1, M[0, 2] = -1.

A second, discrete route to the same limit object never touches the
ODE: continue the frame itself around the loop and read off which level
each slot returns to and with which residual sign
(:func:`frame_monodromy`).  The two routes are independent checks of
one another.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bethe import (Parity, SolverError, branch_point_function, check_coupling,
                    newton_correct_array, newton_step, real_axis_k,
                    rotated_sqrt)
from .continuation import (STEP_GROWTH, ComplexPath, circle_path,
                           tangent_slope, walk_path)
from .exceptional import ExceptionalPoint, find_ep

FOUR_OVER_PI = 4.0 / np.pi

MIN_LOOP_RADIUS = 1e-4

#: a quasi-momentum gap below this puts the connection at an exceptional point
GAP_TOL = 1e-6
#: relative tolerance of a Magnus step, the default of `transport`
TRANSPORT_RTOL = 1e-10


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
        if self.n_levels < 2:
            raise ValueError("a truncation needs at least two levels")

    @property
    def base(self) -> int:
        return 0 if self.parity is Parity.EVEN else 1

    @property
    def levels(self) -> tuple:
        return tuple(self.base + 2 * i for i in range(self.n_levels))

    def slot(self, n: int) -> int:
        """Index of level n inside the truncation."""
        i, rem = divmod(n - self.base, 2)
        if rem or not 0 <= i < self.n_levels:
            raise ValueError(f"level {n} is not in this truncation")
        return i


@dataclass(frozen=True)
class HolonomyMatrix:
    """A transport or monodromy matrix over one truncated family.

    Entry (i, j) is the coefficient of starting slot i in the
    transported slot j; later loops multiply from the left.  ``steps``
    and ``rejected`` count Magnus steps when the matrix came from
    transport.
    """

    truncation: TruncationSpec
    matrix: np.ndarray
    steps: int = 0
    rejected: int = 0

    def entry(self, n_row: int, n_col: int) -> complex:
        """Matrix entry addressed by level labels instead of slots."""
        t = self.truncation
        return complex(self.matrix[t.slot(n_row), t.slot(n_col)])


def d_sign(n: int) -> int:
    """Alternating sign d_n = (-1)**floor(n/2)."""
    return -1 if (n // 2) % 2 else 1


def d_function(n: int, g, k) -> complex:
    """Standard-sheet D_n at the point (g, k) of level n's surface."""
    return d_sign(n) * k / rotated_sqrt(branch_point_function(g, k))


def d_function_trig(n: int, g, k) -> complex:
    """D_n in its trigonometric form, an independent route to the value.

    Uses (1 +- sinc(k))**(-1/2) * {cos, sin}(pi k / 2); the sign rides
    on the trig factor.  On shell 1 +- sinc(k) equals trig**2 * r / k**2,
    so the square root here takes the same window, `rotated_sqrt`.
    """
    from .eigensystem import sinc_pi

    w = 1.0 + sinc_pi(k) if Parity.of_level(n) is Parity.EVEN else 1.0 - sinc_pi(k)
    root = rotated_sqrt(w)
    h = 0.5 * np.pi * k
    trig = np.cos(h) if Parity.of_level(n) is Parity.EVEN else np.sin(h)
    return trig / root


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
    gaps = np.abs(k[..., :, None] - k[..., None, :])
    gaps[..., diag, diag] = np.inf
    if gaps.size and gaps.min() < GAP_TOL:
        *_, i, j = idx = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise ConnectionProximityError(
            f"levels {levels[i]} and {levels[j]} are quasi-degenerate "
            f"(|k_{levels[i]} - k_{levels[j]}| = {gaps[idx]:.3e})")
    denom = k[..., :, None] ** 2 - k[..., None, :] ** 2
    denom[..., diag, diag] = 1.0
    a = -1j * FOUR_OVER_PI * d[..., :, None] * d[..., None, :] / denom
    a[..., diag, diag] = 0.0
    return a


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
        d = np.array([d_sign(n) for n in self.levels], dtype=complex)
        return d * self.k / self.sqrt_r

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
    s = np.array([rotated_sqrt(branch_point_function(g, kk)) for kk in k],
                 dtype=complex)
    return TransportFrame(levels, complex(g), k, s)


def entry_frame(trunc: TruncationSpec, g0: complex) -> TransportFrame:
    """Standard-sheet frame at g0, continued straight down if off-axis.

    The implied entry cut is the vertical segment from Re(g0); starting
    points reached through a different corridor need an explicitly
    continued frame instead.
    """
    g0 = complex(g0)
    axis = frame_at(trunc, g0.real)
    return axis if abs(g0.imag) < 1e-14 else advance_frame(axis, g0)


def _advance_run(frame: TransportFrame, g_points, tol: float):
    """Every slot of ``frame`` moved to each coupling of the run
    g_1..g_S: (frames at g_1..g_S, True), or (None, False) if any point
    is unsafe.

    A truncation is one parity family, so a single array corrector call
    covers the run: g of shape (S, 1) against k of shape (S, m), each
    point predicted from the tangent at ``frame``.  After convergence
    one more Newton step (`newton_step`) is taken, which tightens
    the far points of the run without a tighter tol.  Each point is
    then checked against the one before it (``frame`` for the first):
    it is unsafe when a slot fails to converge, moves by more than 0.35
    of the previous level spacing (it may have jumped basins), or when
    the continued sqrt(r), signed by continuity, is about equally far
    from both signs of its previous value.
    """
    parity = Parity.of_level(frame.levels[0])
    g = np.asarray(g_points, dtype=complex)[:, None]
    k_pred = frame.k + (g - frame.g) * tangent_slope(frame.g, frame.k)
    k, _, ok = newton_correct_array(parity, g, k_pred, tol=tol)
    if not ok.all():
        return None, False
    k = newton_step(parity, g, k)
    k_before = np.concatenate([frame.k[None], k[:-1]])
    gaps = np.abs(k_before[:, :, None] - k_before[:, None, :])
    diag = np.arange(k.shape[1])
    gaps[:, diag, diag] = np.inf
    if np.any(np.abs(k - k_before) > 0.35 * gaps.min(axis=(1, 2))[:, None]):
        return None, False
    s = np.sqrt(branch_point_function(g, k))
    s_before = np.concatenate([frame.sqrt_r[None], s[:-1]])
    flip = np.abs(s - s_before) > np.abs(s + s_before)
    # reject the run when both signs are about equally far: the branch
    # has rotated too much to track from one point to the next
    if np.any(np.abs(np.where(flip, -s, s) - s_before)
              > 0.6 * (np.abs(s) + np.abs(s_before))):
        return None, False
    # each point's sign is relative to the one before, so the signs chain
    s = s * np.cumprod(np.where(flip, -1.0, 1.0), axis=0)
    return [TransportFrame(frame.levels, complex(gi), ki, si)
            for gi, ki, si in zip(g[:, 0], k, s)], True


def advance_frame(frame: TransportFrame, g_target: complex) -> TransportFrame:
    """Continue a frame along the straight segment to ``g_target``.

    `walk_path` tries the whole distance in one hop first, steps as
    `continuation._scalar_hop` does, and gives up once the step falls
    below 2**-48 of it; each accepted hop keeps every slot, corrected to
    1e-12, in its own Newton basin and on its own sqrt(r) branch.
    """
    target = complex(g_target)
    check_coupling(target)
    distance = abs(target - frame.g)

    def hop(f, g):
        run, ok = _advance_run(f, (g,), 1e-12)
        return (run[0] if ok else None), ok, STEP_GROWTH if ok else 0.5

    end, reached, _ = walk_path((frame.g, target), frame, hop, h=distance,
                                max_step=distance, min_step=distance * 2.0 ** -48)
    if not reached:
        raise TransportError(f"frame advance stalled between {end.g} and {target}")
    return end


#: a Magnus step's Gauss-Legendre nodes
_GAUSS_NODES = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
TAIL_ROW_BOUND = 0.25
#: Magnus-step absolute tolerance, step budget and smallest step
MAGNUS_ATOL, MAGNUS_MAX_STEPS, MAGNUS_MIN_STEP = 1e-13, 200000, 1e-12


def _commutator(x, y):
    return x @ y - y @ x


def _expm(x):
    """exp(x) by scaling and squaring (Higham 2005): a degree-12 Taylor
    polynomial of x / 2**s, whose 1-norm is below 1/4 (tail < 3e-18)."""
    s = max(0, int(np.frexp(4.0 * np.linalg.norm(x, 1))[1]))
    y = x / 2.0 ** s
    e = one = np.eye(len(x), dtype=complex)
    for j in range(12, 0, -1):
        e = one + (y @ e) / j
    for _ in range(s):
        e = e @ e
    return e


def transport(path: ComplexPath, trunc: TruncationSpec, *,
              frame0: TransportFrame | None = None,
              rtol: float = TRANSPORT_RTOL) -> HolonomyMatrix:
    """Integrate parallel transport of the truncated family along ``path``.

    The initial frame defaults to :func:`entry_frame` at the path start.
    The result's matrix is V at the path end with V(0) = 1; a warning is
    issued if the top retained level's coupling row grows beyond a bound
    anywhere along the way, since then the truncation is feeding back
    into the retained block.
    """
    if not 0.0 < rtol < np.inf:
        raise ValueError(f"transport needs 0 < rtol < inf, got {rtol}")
    levels = trunc.levels
    if frame0 is None:
        frame0 = entry_frame(trunc, complex(path.waypoints[0]))
    elif frame0.levels != levels:
        raise ValueError("frame0 was built for a different truncation")
    if abs(complex(path.waypoints[0]) - frame0.g) > 1e-12:
        raise ValueError("frame0 sits at a different point than the path start")

    steps = rejected = 0
    tail_warned = False

    def hop(state, g):
        """One Magnus step from state = (frame, its connection, V) to g."""
        nonlocal steps, rejected, tail_warned
        frame, a_start, v = state
        dg = g - frame.g
        run, ok = _advance_run(frame, [frame.g + c * dg for c in _GAUSS_NODES] + [g],
                               min(1e-12, rtol))
        if not ok:
            rejected += 1
            return None, False, 0.5
        a_run = connection_matrix(levels, [f.d_values() for f in run],
                                  [f.k for f in run])
        b1, b2, b3 = -1j * dg * a_run[:3]
        a1, a2 = b2, np.sqrt(15.0) / 3.0 * (b3 - b1)
        a3 = 10.0 / 3.0 * (b3 - 2.0 * b2 + b1)
        c1 = _commutator(a1, a2)
        c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
        omega6 = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
        omega4 = a1 + a3 / 12.0 - c1 / 12.0
        scale = MAGNUS_ATOL + rtol * max(1.0, float(np.max(np.abs(v))))
        err = float(np.max(np.abs((omega6 - omega4) @ v))) / scale
        if not err <= 1.0:
            rejected += 1
            return None, False, max(0.2, 0.9 * err ** -0.2)
        tail = float(np.linalg.norm(a_start[-1, :-1]))
        if tail > TAIL_ROW_BOUND and not tail_warned:
            warnings.warn(f"level {levels[-1]} coupling row norm {tail:.3g} "
                          "exceeds the truncation bound, enlarge n_levels",
                          TruncationWarning, stacklevel=4)  # transport's caller
            tail_warned = True
        steps += 1
        if steps + rejected > MAGNUS_MAX_STEPS:
            raise TransportError("step budget exhausted")
        growth = min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0 else 5.0
        return (run[-1], a_run[-1], _expm(omega6) @ v), True, growth

    w = path.waypoints  # the first step spans an eighth of the first segment
    h = max(abs(w[1] - w[0]) / 8.0 if len(w) > 1 else 0.0, 10.0 * MAGNUS_MIN_STEP)
    state = (frame0, frame0.connection(), np.eye(len(levels), dtype=complex))
    (frame, _, v), reached, _ = walk_path(w, state, hop, h=h, max_step=np.inf,
                                          min_step=MAGNUS_MIN_STEP)
    if not reached:
        raise TransportError(f"step size underflow near g = {frame.g}")
    return HolonomyMatrix(trunc, v, steps=steps, rejected=rejected)


def match_frames(frame: TransportFrame, reference: TransportFrame):
    """Match frame slots to reference slots by quasi-momentum, to 1e-8.

    Returns (perm, factors): slot i of ``frame`` holds the level sitting
    in slot perm[i] of ``reference``, and its continued normalization
    differs from the standard-sheet one by factors[i] (always +-1).
    """
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


def frame_monodromy(path: ComplexPath, trunc: TruncationSpec, *,
                    frame0: TransportFrame | None = None) -> HolonomyMatrix:
    """Discrete monodromy of a closed loop, no differential equation.

    The frame itself is continued around the loop; each slot is then
    matched back to the standard levels at the base point and the
    residual normalization signs are read off.  For a loop around a
    single branch point this produces the elementary monodromy exactly,
    up to root-finding precision, and provides an independent check on
    :func:`transport`.
    """
    g0 = complex(path.waypoints[0])
    if abs(complex(path.waypoints[-1]) - g0) > 1e-12:
        raise ValueError("frame monodromy needs a closed loop")
    if frame0 is None:
        frame0 = entry_frame(trunc, g0)
    frame = frame0
    for ga, gb in path.segments():
        frame = advance_frame(frame, gb)
    perm, factors = match_frames(frame, frame0)
    w = np.zeros((trunc.n_levels, trunc.n_levels), dtype=complex)
    w[perm, np.arange(trunc.n_levels)] = factors
    return HolonomyMatrix(trunc, w)


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
    if not 1 <= m <= trunc.n_levels - 1:
        raise ValueError("chain length must fit inside the truncation")
    out = np.eye(trunc.n_levels, dtype=complex)
    out[:m + 1, :m + 1] = np.eye(m + 1, k=-1)
    out[0, m] = (-1.0) ** m
    return HolonomyMatrix(trunc, out)


@dataclass
class EpLoopHolonomy:
    """Transport around one exceptional point, with its analytic target."""

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
    elementary monodromy; it shrinks with the loop radius.  A level
    outside the truncation is refused before the search and transport.
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
