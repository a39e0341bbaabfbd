"""
Exceptional points of the two-body Lieb-Liniger spectrum.

A branch point of the quasi-momentum surface satisfies the Bethe
condition together with dJ/dk = 0, i.e.

    bethe_residual(parity, g, k) = 0,
    r(g, k) = k^2 + g^2 + 2 g / pi = 0.

The real solutions (g = 0 for the even family, g = -2/pi for the odd
family) are ordinary degeneracies of counter-propagating momenta, not
spectral defects.  The complex solutions are exceptional points: each
excited branch n > 1 collides with its family's bound-capable branch
(n_b = 0 for even n, n_b = 1 for odd n) at a single point g_ep in the
lower half plane (the upper half plane holds the mirror images, which
belong to the reflected momentum branch).  Even-family points sit at
Re g < 0, odd-family points at Re g < -2/pi.

Search.  On the collision curve r = 0 the momentum obeys
k^2 = -g (g + 2/pi).  The even residual is even in k, and so is the odd
residual divided by k, so each family's branch-point condition is one
function of g alone,

    F(g) = bethe_residual(parity, g, k) / (1 or k),
    k = sqrt(-g (g + 2/pi)),

entire in g, with no square-root branch to choose (the principal root,
Re k >= 0, is as good as any).  Its zeros are the family's exceptional
points, their mirror images, and the real degeneracy.  `find_ep(n)`
walks the family's rungs n_b + 2, n_b + 4, ..., n by Newton's method on
F with its analytic derivative: the two lowest rungs m start from the
strong-coupling estimate -i (m - 1), every later rung from the linear
extrapolation of the two rungs below it (neighbouring points sit about
2 apart).  The argument principle certifies a root: F winds exactly
once around the circle of radius 1 about it.

Catalog.  This module is the only one that walks the ladder.  Every
query of it (`find_ep`, `ladder_points`, `family_eps`, `enumerate_eps`)
has two outcomes: the complete result, or the ExceptionalPointError of
the first rung that fails.  Each rung starts from the two below it, so
a failed rung fails every one above it too.

Local structure: with eps = g - g_ep, the two colliding branches obey

    k_{n_b}(g) = k_ep - sqrt((2/pi) eps) + O(eps),
    k_n(g)     = k_ep + sqrt((2/pi) eps) + O(eps),

where the square root's branch cut runs from the exceptional point
straight down (argument of eps in (-pi/2, 3*pi/2]), so that values
continued vertically from the real axis stay on the principal side.
The square-root coefficient G2 = -(g^2+k^2)/g equals 2/pi exactly on
the solution set of r = 0.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .bethe import (COUPLING_LIMIT, NEWTON_MAX_STEPS, RESIDUAL_TARGET, Parity,
                    bethe_residual, branch_point_function, check_coupling, is_label,
                    residual_terms, rotated_sqrt, terms_from_trig)

#: reject "exceptional points" that are really the real-axis degeneracies
REAL_AXIS_GUARD = 0.05


class ExceptionalPointError(RuntimeError):
    """Search for an exceptional point failed."""


@dataclass(frozen=True)
class ExceptionalPoint:
    """Collision of branch n with its family's bound-capable branch n_b."""

    n: int
    n_b: int
    g_ep: complex
    k_ep: complex
    parity: Parity

    def residuals(self) -> tuple[complex, complex]:
        return ep_residual(self.parity, self.g_ep, self.k_ep)

    def max_residual(self) -> float:
        a, b = self.residuals()
        return float(max(abs(a), abs(b)))


def ep_residual(parity: Parity, g, k) -> tuple[complex, complex]:
    """Joint residual (Bethe condition, branch-point condition)."""
    return (complex(bethe_residual(parity, g, k)),
            complex(branch_point_function(g, k)))


def _collision_function(parity: Parity, g):
    """(F, dF/dg, scaled residual, k) on the collision curve at g.

    k = sqrt(-g (g + 2/pi)) with Re k >= 0; F is the Bethe residual at
    (g, k), divided by k for the odd family.  The scaled residual is
    |residual| / residual_scale, as in `scaled_bethe_residual`.
    Accepts scalars or arrays; where k = 0 (g = 0 or -2/pi) F or dF/dg
    is not finite.
    """
    k = np.sqrt(-g * (g + 2.0 / np.pi))
    h = 0.5 * np.pi * k
    sin_h, cos_h = np.sin(h), np.cos(h)
    r, dr_dk, scale = terms_from_trig(parity, g, k, h, sin_h, cos_h, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0: not finite
        dk_dg = -(g + 1.0 / np.pi) / k
        if parity is Parity.EVEN:
            f, df = r, dr_dk * dk_dg - cos_h
        else:
            f = r / k
            df = (dr_dk - f) / k * dk_dg + sin_h / k
    return f, df, np.abs(r) / scale, k


def _newton_on_f(parity: Parity, g, tol: float):
    """Root of F by Newton's method from g, or None without convergence.

    One more step is taken after the scaled residual drops below tol.
    """
    for _ in range(NEWTON_MAX_STEPS):
        f, df, scaled, _ = _collision_function(parity, g)
        if not (np.isfinite(f) and np.isfinite(df)) or df == 0:
            return None
        g = g - f / df
        if scaled < tol:
            return complex(g)
    return None


def _winding_number(parity: Parity, contour) -> int:
    """Zeros of F inside a closed contour, counted by the argument principle.

    contour maps t in [0, 1] (an array) to g along the closed curve.
    From 64 points, the points are doubled until every phase step of F
    between neighbours is below pi/3, so that no turn of the phase is
    missed.  F comes from `residual_terms`, whose positive factor leaves
    its phase unchanged and keeps it finite on deep contours.
    """
    points = 64
    while points <= 1 << 14:
        g = contour(np.linspace(0.0, 1.0, points + 1))
        k = np.sqrt(-g * (g + 2.0 / np.pi))  # as in `_collision_function`
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0: not finite
            f = residual_terms(parity, g, k)[0] / (1.0 if parity is Parity.EVEN else k)
        steps = np.angle(f[1:] / f[:-1])
        if np.all(np.abs(steps) < np.pi / 3):
            return int(round(steps.sum() / (2.0 * np.pi)))
        points *= 2
    raise ExceptionalPointError(
        f"phase of F not resolved with {points // 2} contour points")


def circle_reaches_branch_point(parity: Parity, g0: float, radius: float) -> bool:
    """Whether the circle of the given radius about g0 encloses or touches
    a branch point of the family: the real one lies within the radius
    (tested first, as F vanishes there), or F winds around the circle.
    g0 must lie in the coupling domain and the radius be finite and > 0,
    as for `circle_path`; anything else is a ValueError."""
    check_coupling(g0)
    if not 0.0 < radius < np.inf:
        raise ValueError(f"a circle needs a finite radius > 0, got {radius!r}")
    return bool(abs(g0 - parity.real_branch_point) <= radius or _winding_number(
        parity, lambda t: g0 + radius * np.exp(2j * np.pi * t)))


def _accept_root(parity: Parity, n: int, g: complex) -> complex:
    """The root g folded into the lower half plane, or raise if it is a
    real-axis degeneracy or lies on the wrong side of its family's line."""
    if abs(g.imag) < REAL_AXIS_GUARD:
        raise ExceptionalPointError(
            f"search for n={n} converged to the real axis at g={g}; "
            "that is an ordinary degeneracy, not an exceptional point")
    if g.imag > 0:
        # mirror-image root: fold back to the curated lower half plane
        g = g.conjugate()
    if not g.real < parity.real_branch_point:
        raise ExceptionalPointError(f"n={n}: converged point {g} violates "
                                    f"Re g < {parity.real_branch_point:.6f}")
    return g


def _ladder(parity: Parity, n_max: int):
    """Walk the family's rungs up to n_max once, yielding (n, root of F).

    Each rung starts from the two below it, so the walk raises the
    ExceptionalPointError of the first rung where Newton fails or
    `_accept_root` refuses the root.
    """
    if not is_label(n_max):
        raise ValueError(f"the rungs run up to an integer label, not a bool, got {n_max!r}")
    below = []
    for m in range(parity.bound_level + 2, n_max + 1, 2):
        start = -1j * (m - 1) if len(below) < 2 else 2.0 * below[-1] - below[-2]
        g = _newton_on_f(parity, start, RESIDUAL_TARGET)
        if g is None:
            raise ExceptionalPointError(f"no convergence for n={m} from {start}")
        below.append(_accept_root(parity, m, g))
        yield m, below[-1]


def _rung_point(parity: Parity, n: int, g: complex, certify: bool) -> ExceptionalPoint:
    """The point at rung n's root g; with certify, an ExceptionalPointError
    unless F winds exactly once around the unit circle about g."""
    if certify:
        winding = _winding_number(parity, lambda t: g + np.exp(2j * np.pi * t))
        if winding != 1:
            raise ExceptionalPointError(
                f"F winds {winding} times around the unit circle about "
                f"g={g} for n={n}; expected exactly one root")
    k = complex(_collision_function(parity, g)[3])
    return ExceptionalPoint(n, parity.bound_level, g, k, parity)


def find_ep(n: int, *, verify_unique: bool = True) -> ExceptionalPoint:
    """Locate the exceptional point that couples branch n (n > 1) to its
    family's bound-capable branch, or raise ExceptionalPointError.

    Newton on the collision function F walks the family's rungs from
    the bottom up to n (see the module docstring) to a scaled Bethe
    residual below 1e-12; a rung with no root, or with a root on the
    real axis (the degeneracies at g = 0, -2/pi), fails this one and
    every one above it.  With verify_unique, F must also wind exactly
    once around the circle of radius 1 about the root.  A label above
    COUPLING_LIMIT is a ValueError: |Im g_ep(n)| > n - 1, so its point
    lies outside the coupling domain.
    """
    if not (is_label(n) and 1 < n <= COUPLING_LIMIT):
        raise ValueError(f"an exceptional point needs an excited integer label n, "
                         f"1 < n <= {COUPLING_LIMIT:.0f}, got {n!r}")
    parity = Parity.of_level(n)
    *_, (_, g) = _ladder(parity, n)
    return _rung_point(parity, n, g, verify_unique)


def ladder_points(parity: Parity, n_max: int, *, verify_unique: bool = True):
    """Walk the family's rungs up to n_max once, yielding (n, point) in
    order of n, the ExceptionalPoint `find_ep` gives label n; at the
    first label where `find_ep` raises, the walk raises its error."""
    for n, g in _ladder(parity, n_max):
        yield n, _rung_point(parity, n, g, verify_unique)


def family_eps(parity: Parity, depth: float):
    """The family's exceptional points in ladder order from one walk, up
    to and including the first one deeper than |Im g| = depth, lazily.
    A rung the walk fails on raises its ExceptionalPointError: nothing
    bounds the points below a missing one."""
    for _, point in ladder_points(parity, parity.bound_level + 2 * (int(depth) // 2 + 3),
                                  verify_unique=False):
        yield point
        if -point.g_ep.imag > depth:
            return


def enumerate_eps(parity: Parity, n_max: int, *,
                  verify_unique: bool = True) -> list[ExceptionalPoint]:
    """All exceptional points of one family with n <= n_max, sorted by n,
    or the ExceptionalPointError of the first label that fails: never a
    catalog cut short.  An n_max above COUPLING_LIMIT is a ValueError, as
    for `find_ep`, before any rung is walked."""
    if is_label(n_max) and n_max > COUPLING_LIMIT:
        raise ValueError(f"labels above {COUPLING_LIMIT:.0f} have their exceptional "
                         f"points outside the coupling domain, got n_max = {n_max}")
    return [point for _, point in ladder_points(parity, n_max, verify_unique=verify_unique)]


def sqrt_lower_cut(eps) -> complex:
    """Square root with branch cut running straight down: the argument
    of eps is taken in (-pi/2, 3*pi/2], i.e. i `rotated_sqrt`(-eps)."""
    return 1j * rotated_sqrt(-complex(eps))


def local_expansion(ep: ExceptionalPoint, epsilon) -> tuple[complex, complex]:
    """First-order square-root approximants of the two colliding branches
    at g = g_ep + epsilon.

    Returns (k_bound_branch, k_excited_branch) = k_ep -/+ sqrt((2/pi) eps)
    with the downward branch cut.  The expansion is local; requesting
    |epsilon| beyond 1e-2 is allowed but flagged with a warning; a
    non-finite epsilon is a ValueError.
    """
    epsilon = complex(epsilon)
    if not cmath.isfinite(epsilon):
        raise ValueError(f"epsilon must be a finite offset from the point, got {epsilon!r}")
    if abs(epsilon) > 1e-2:
        warnings.warn(
            f"|epsilon| = {abs(epsilon):.3g} exceeds the trust radius "
            "0.01 of the square-root expansion", stacklevel=2)
    s = cmath.sqrt(2.0 / np.pi) * sqrt_lower_cut(epsilon)
    return ep.k_ep - s, ep.k_ep + s


def sqrt_coefficient(ep: ExceptionalPoint) -> complex:
    """G2 = -(g^2 + k^2)/g at the point; equals 2/pi on exact solutions,
    so its deviation measures the residual of the computed coordinates."""
    g, k = ep.g_ep, ep.k_ep
    return -(g * g + k * k) / g
