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

* point evaluation on the standard sheet uses a fixed branch window per
  level (:func:`standard_sqrt_r`): the principal square root for labels
  n >= 2, and for the two bound-capable labels a window rotated so the
  real-axis bound branch carries sqrt(r) = -i sqrt(|r|);
* transport tracks sqrt(r) by continuity along the path, slot by slot,
  together with the quasi-momenta (:class:`TransportFrame`), because a
  loop around a branch point flips the sign of sqrt(r) and a fixed
  window would make the connection jump mid-path.

Transport integrates

    dV/dt = -i * A(g(t)) * g'(t) * V,    V(0) = 1

along piecewise-linear paths with an embedded Dormand-Prince 5(4) pair,
advancing the frame to every internal stage.  One call of the array
corrector :func:`lieb2b.continuation.newton_correct_array` moves all
slots of a frame at once; a hop is bisected when any slot would leave
its Newton basin or its sqrt(r) branch.  The returned matrix is V
at the path end, nothing folded in: columns expand the transported
slots over the starting slots, and transports over concatenated paths
compose by left multiplication.  For a small clockwise loop around the
branch point joining level n to its bound-capable partner n_b this
converges, as the radius shrinks, to the elementary monodromy

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
from dataclasses import dataclass, field

import numpy as np

from .bethe import Parity, solve_k_real
from .continuation import (ComplexPath, branch_point_function, circle_path,
                           newton_correct_array)
from .exceptional import ExceptionalPoint, find_ep

FOUR_OVER_PI = 4.0 / np.pi

#: Index convention carried by every holonomy matrix: entry (i, j) is the
#: coefficient of starting slot i in the transported slot j, composition
#: is by left multiplication, and a clockwise loop around the first even
#: branch point gives M[2's slot, 0's slot] = +1.
ORDERING_CONVENTION = "columns = transported slots; later loops multiply from the left"

MIN_LOOP_RADIUS = 1e-4


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
    """A transport or monodromy matrix together with its provenance.

    ``contour`` is None for analytic (closed-form) matrices.  The extra
    fields carry integration metadata when the matrix came from
    transport.
    """

    truncation: TruncationSpec
    matrix: np.ndarray
    contour: ComplexPath | None = None
    ordering_convention: str = ORDERING_CONVENTION
    steps: int = 0
    rejected: int = 0
    frame_start: "TransportFrame | None" = field(default=None, repr=False)
    frame_end: "TransportFrame | None" = field(default=None, repr=False)

    def entry(self, n_row: int, n_col: int) -> complex:
        """Matrix entry addressed by level labels instead of slots."""
        t = self.truncation
        return complex(self.matrix[t.slot(n_row), t.slot(n_col)])


def d_sign(n: int) -> int:
    """Alternating sign d_n = (-1)**floor(n/2)."""
    return -1 if (n // 2) % 2 else 1


def rotated_sqrt(w):
    """sqrt(w) in the window rotated by -pi/2: arguments of w in
    (pi/2, pi] count as negative, so the cut runs along the positive
    imaginary axis and sqrt(-1) = -i."""
    w = complex(w)
    s = np.sqrt(w)
    if np.angle(w) > 0.5 * np.pi:
        s = -s
    return s


def standard_sqrt_r(n: int, r):
    """Standard-sheet branch of sqrt(r) for the level labeled n.

    Labels n >= 2 use the principal branch, cut along negative real r.
    The bound-capable labels keep the rotated window of `rotated_sqrt`,
    so on the real-axis bound branch (r < 0) the value is
    -i*sqrt(|r|).
    """
    return rotated_sqrt(r) if n < 2 else np.sqrt(complex(r))


def d_function(n: int, g, k) -> complex:
    """Standard-sheet D_n at the point (g, k) of level n's surface."""
    r = branch_point_function(g, k)
    return d_sign(n) * k / standard_sqrt_r(n, r)


def d_function_trig(n: int, g, k) -> complex:
    """D_n in its trigonometric form, an independent route to the value.

    Uses (1 +- sinc(k))**(-1/2) * {cos, sin}(pi k / 2); the sign rides
    on the trig factor.  On shell 1 +- sinc(k) equals trig**2 * r / k**2,
    so the square root here inherits the branch windows of
    :func:`standard_sqrt_r`, including the rotated window of the
    bound-capable labels.
    """
    from .eigensystem import sinc_pi

    w = 1.0 + sinc_pi(k) if Parity.of_level(n) is Parity.EVEN else 1.0 - sinc_pi(k)
    root = standard_sqrt_r(n, w)
    h = 0.5 * np.pi * k
    trig = np.cos(h) if Parity.of_level(n) is Parity.EVEN else np.sin(h)
    return trig / root


def connection_matrix(levels, d_values, k_values, *, gap_tol: float = 1e-6):
    """Connection from precomputed D and k slot vectors.

    All levels must share one parity.  A quasi-momentum gap below
    ``gap_tol`` means the evaluation point sits essentially at an
    exceptional point of that pair, where the connection diverges.
    """
    levels = tuple(levels)
    d = np.asarray(d_values, dtype=complex)
    k = np.asarray(k_values, dtype=complex)
    off = ~np.eye(len(k), dtype=bool)
    gaps = np.abs(k[:, None] - k[None, :])
    if np.any(off) and np.min(gaps[off]) < gap_tol:
        i, j = np.unravel_index(np.argmin(np.where(off, gaps, np.inf)), gaps.shape)
        raise ConnectionProximityError(
            f"levels {levels[i]} and {levels[j]} are quasi-degenerate "
            f"(|k_{levels[i]} - k_{levels[j]}| = {gaps[i, j]:.3e})")
    denom = k[:, None] ** 2 - k[None, :] ** 2
    denom[~off] = 1.0
    a = -1j * FOUR_OVER_PI * d[:, None] * d[None, :] / denom
    a[~off] = 0.0
    return a


def gauge_connection(g, trunc: TruncationSpec, k_values=None, *,
                     gap_tol: float = 1e-6):
    """Standard-sheet gauge connection of one truncated family at g.

    At real g the quasi-momenta are solved on the spot; at complex g the
    caller supplies the sheet values.  For branch-tracked evaluation
    along a path use :class:`TransportFrame` instead.
    """
    levels = trunc.levels
    if k_values is None:
        if np.iscomplexobj(g) and complex(g).imag != 0.0:
            raise ValueError("complex coupling needs explicit sheet quasi-momenta")
        k_values = [solve_k_real(n, float(np.real(g))).k for n in levels]
    d = [d_function(n, g, k) for n, k in zip(levels, k_values)]
    return connection_matrix(levels, d, k_values, gap_tol=gap_tol)


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

    def spacing(self) -> float:
        if len(self.levels) < 2:
            return np.inf
        diff = np.abs(self.k[:, None] - self.k[None, :])
        return float(np.min(diff[~np.eye(len(self.k), dtype=bool)]))


def frame_at(trunc: TruncationSpec, g: float) -> TransportFrame:
    """Standard-sheet frame on the real coupling axis."""
    levels = trunc.levels
    k = np.array([solve_k_real(n, g).k for n in levels], dtype=complex)
    s = np.array([standard_sqrt_r(n, branch_point_function(g, kk))
                  for n, kk in zip(levels, k)], dtype=complex)
    return TransportFrame(levels, complex(g), k, s)


def entry_frame(trunc: TruncationSpec, g0: complex) -> TransportFrame:
    """Standard-sheet frame at g0, continued straight down if off-axis.

    The implied entry cut is the vertical segment from Re(g0); starting
    points reached through a different corridor need an explicitly
    continued frame instead.
    """
    g0 = complex(g0)
    if abs(g0.imag) < 1e-14:
        return frame_at(trunc, g0.real)
    axis = frame_at(trunc, g0.real)
    return advance_frame(axis, g0)


def _advance_once(frame: TransportFrame, g_new: complex, tol: float):
    """One Newton hop of every slot to g_new, or None if any slot is unsafe.

    A truncation is one parity family, so a single array corrector call
    covers all slots.  A hop is unsafe when a slot fails to converge,
    moves by more than 0.35 of the frame's level spacing (it may have
    jumped basins), or when the continued sqrt(r), signed by continuity,
    is about equally far from both signs of its previous value.
    """
    parity = Parity.of_level(frame.levels[0])
    k, _, ok = newton_correct_array(parity, g_new, frame.k, tol=tol)
    if not ok.all() or np.any(np.abs(k - frame.k) > 0.35 * frame.spacing()):
        return None
    s = np.sqrt(branch_point_function(g_new, k))
    s = np.where(np.abs(s - frame.sqrt_r) > np.abs(s + frame.sqrt_r), -s, s)
    # reject the hop when both signs are about equally far: the
    # branch has rotated too much to track across one step
    if np.any(np.abs(s - frame.sqrt_r) > 0.6 * (np.abs(s) + np.abs(frame.sqrt_r))):
        return None
    return TransportFrame(frame.levels, g_new, k, s)


def advance_frame(frame: TransportFrame, g_target: complex, *,
                  tol: float = 1e-12, max_bisections: int = 48) -> TransportFrame:
    """Continue a frame along the straight segment to ``g_target``.

    Bisects the segment as needed; each accepted hop keeps every slot in
    its own Newton basin and on its own sqrt(r) branch.
    """
    current = frame
    target = complex(g_target)
    depth = 0
    step = target - current.g
    while current.g != target:
        towards = current.g + step
        if abs(towards - current.g) >= abs(target - current.g):
            towards = target
        advanced = _advance_once(current, towards, tol)
        if advanced is None:
            depth += 1
            if depth > max_bisections:
                raise TransportError(
                    f"frame advance stalled between {current.g} and {target}")
            step *= 0.5
            continue
        current = advanced
        depth = 0
    return current


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])

TAIL_ROW_BOUND = 0.25


def transport(path: ComplexPath, trunc: TruncationSpec, *,
              frame0: TransportFrame | None = None, rtol: float = 1e-10,
              atol: float = 1e-13, max_steps: int = 200000,
              min_step: float = 1e-12) -> HolonomyMatrix:
    """Integrate parallel transport of the truncated family along ``path``.

    The initial frame defaults to the standard sheet: solved on the spot
    for a real starting point, continued straight down from the real
    axis for an off-axis one.  The result's matrix is V at the path end
    with V(0) = 1; a warning is issued if the top retained level's
    coupling row grows beyond a bound anywhere along the way, since then
    the truncation is feeding back into the retained block.
    """
    levels = trunc.levels
    if frame0 is None:
        frame0 = entry_frame(trunc, complex(path.waypoints[0]))
    elif frame0.levels != levels:
        raise ValueError("frame0 was built for a different truncation")
    if abs(complex(path.waypoints[0]) - frame0.g) > 1e-12:
        raise ValueError("frame0 sits at a different point than the path start")

    m = len(levels)
    v = np.eye(m, dtype=complex)
    frame = frame0
    steps = rejected = 0
    newton_tol = min(1e-12, rtol)
    tail_warned = False

    for ga, gb in path.segments():
        seg = gb - ga
        length = abs(seg)
        direction = seg / length
        t = 0.0
        h = min(length, max(length / 8.0, 10.0 * min_step))
        while t < length:
            h = min(h, length - t)
            if h < min_step:
                raise TransportError(f"step size underflow near g = {frame.g}")
            stage_frames = [frame]
            a0 = frame.connection()
            ks = [-1j * direction * a0 @ v]
            failed = False
            for s in range(1, 7):
                g_stage = ga + direction * (t + _DP_C[s] * h)
                base = stage_frames[-1]
                try:
                    f_stage = base if g_stage == base.g else advance_frame(
                        base, g_stage, tol=newton_tol)
                except TransportError:
                    failed = True
                    break
                stage_frames.append(f_stage)
                v_stage = v + h * sum(a * k for a, k in zip(_DP_A[s], ks))
                ks.append(-1j * direction * f_stage.connection() @ v_stage)
            if failed:
                rejected += 1
                h *= 0.5
                continue
            v5 = v + h * sum(b * k for b, k in zip(_DP_B5, ks))
            v4 = v + h * sum(b * k for b, k in zip(_DP_B4, ks))
            scale = atol + rtol * max(1.0, float(np.max(np.abs(v5))))
            err = float(np.max(np.abs(v5 - v4))) / scale
            if err <= 1.0:
                if not tail_warned and m > 1:
                    tail = float(np.linalg.norm(a0[-1, :-1]))
                    if tail > TAIL_ROW_BOUND:
                        warnings.warn(
                            f"level {levels[-1]} coupling row norm {tail:.3g} "
                            "exceeds the truncation bound, enlarge n_levels",
                            TruncationWarning, stacklevel=2)
                        tail_warned = True
                v = v5
                frame = stage_frames[6]
                t += h
                steps += 1
                if steps + rejected > max_steps:
                    raise TransportError("step budget exhausted")
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
            else:
                rejected += 1
                h *= max(0.2, 0.9 * err ** -0.2)
    return HolonomyMatrix(trunc, v, path, steps=steps, rejected=rejected,
                          frame_start=frame0, frame_end=frame)


def match_frames(frame: TransportFrame, reference: TransportFrame, *,
                 k_tol: float = 1e-8):
    """Match frame slots to reference slots by quasi-momentum.

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
        if d > k_tol:
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
    m = len(trunc.levels)
    w = np.zeros((m, m), dtype=complex)
    for j in range(m):
        w[perm[j], j] = factors[j]
    return HolonomyMatrix(trunc, w, path, frame_start=frame0, frame_end=frame)


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
    m[i, j] = d
    m[j, i] = -d
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
    for i in range(m + 1):
        out[i, i] = 0.0
    for i in range(m):
        out[i + 1, i] = 1.0
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
    steps: int


def ep_loop_holonomy(n: int, trunc: TruncationSpec | None = None,
                     radius: float = 1e-3, *, ep: ExceptionalPoint | None = None,
                     rtol: float = 1e-10, arc_points: int = 48) -> EpLoopHolonomy:
    """Transport once clockwise around level n's branch point.

    The start point g_ep + radius carries standard-sheet values,
    continued straight down from the real axis.  The returned defect is
    the max-norm distance of the raw transport matrix from the
    elementary monodromy; it shrinks with the loop radius.
    """
    if radius < MIN_LOOP_RADIUS:
        raise ValueError(f"loop radius below the safe floor {MIN_LOOP_RADIUS}")
    if trunc is None:
        trunc = TruncationSpec(Parity.of_level(n), 12)
    if ep is None:
        ep = find_ep(n, verify_unique=False)
    loop = circle_path(ep.g_ep, radius, n_points=arc_points, clockwise=True)
    hol = transport(loop, trunc, rtol=rtol)
    ideal = m_n_analytic(n, trunc).matrix
    defect = float(np.max(np.abs(hol.matrix - ideal)))
    return EpLoopHolonomy(ep, trunc, radius, hol, defect, hol.steps)
