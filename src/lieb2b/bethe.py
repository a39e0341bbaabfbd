"""
Quasi-momentum branches of the two-body Lieb-Liniger model.

Two identical bosons on a 2*pi-periodic line interact through a contact
potential of strength g (units hbar = mass = 1).  The center-of-mass
momentum kbar is an integer, and the relative quasi-momentum k = k2 - k1
is fixed by the requirement that

    J(g, k) = k + (2/pi) * arctan(k / g)

takes an integer value.  Branches are labelled by a non-negative integer
n through k_n(0) = n.  Even-n branches obey k/g = cot(pi k / 2), odd-n
branches obey k/g = -tan(pi k / 2); this module works with the pole-free
forms

    even n:  k sin(pi k / 2) - g cos(pi k / 2) = 0
    odd  n:  k cos(pi k / 2) + g sin(pi k / 2) = 0

whose zero sets coincide with the branches and which are entire in
(g, k).

Sign conventions.  The n = 0 branch for g < 0 and the n = 1 branch for
g < -2/pi describe two-particle bound states with k on the imaginary
axis.  Both are defined by continuation from g > 0 through the lower
half of the complex g plane, which places them on the negative
imaginary axis: k_0(g) ~ i*g -> -i*inf as g -> -inf.  Strong-coupling
limits are k_n(+inf) = n + 1 and, for n > 1, k_n(-inf) = n - 1.  The
entry points take couplings in the domain |Re g|, |Im g| <= 1e6
(`COUPLING_LIMIT`), whose edge stands in for infinite coupling, and
refuse others with ValueError (`check_coupling`).

Energies are E_{kbar,n}(g) = (kbar^2 + k_n(g)^2) / 2 with kbar and n of
equal parity.

Real-axis solve.  `real_axis_k` brackets each point: k in [n, n + 1]
for g > 0 and [n - 1, n] for g < 0 ([1e-13, 1] for n = 1), kappa = i k
in [0, max(1, |g|) + 1] for a bound branch (from 1e-13 for n = 1).  It
runs the bracket-safe Newton iteration of Press et al., Numerical
Recipes, sec. 9.4 (rtsafe) from the chord's zero: a Newton step while
it stays in the half of the bracket next to the point, a bisection
otherwise.  For n = 0 it starts from k_0's small-coupling root
sqrt(2|g|/pi) where that lies in the bracket and above the chord's
zero, which near g = 0 is about |g|, far below the root.  A point is
done once its scaled residual is below tol and its Newton step, which
it then takes, is below tol relative to it and inside the bracket; the
step test matters near k = 0, where the scale's floor of 1 passes
points far from a root.  Where round-off hides the
sign change (at tiny |g| it grows like n * eps) the bracket end with
the smaller scaled residual is the root.

Correction at fixed complex g.  Every Newton step on the residual
off the real axis is taken here, so no other module evaluates the
kernel (`exceptional`'s F(g) is a different function).
`newton_correct` (one point) and `newton_correct_array` (many) take
at most five steps, each halved at most four times while the residual
grows, and return (k, scaled residual, converged); the caller owns
the step size and shrinks it on non-convergence.  A damping test
evaluates all the terms at its trial point, which the next step uses.
Start points past |Im pi k/2| = DEEP_IM_H go through the overflow-safe
`residual_terms` and compare residuals at one scale.  On one point the
array form costs about four times the scalar one (35 against 9 us at a
root), so each caller's input size picks its corrector.
`newton_correct_with_step` also returns the next Newton step r/dr.

`branch_point_function` r(g, k) vanishes where two branches collide;
`rotated_sqrt` is the one window every standard-sheet sqrt(r) takes.
"""

from __future__ import annotations

import cmath
import enum
import numbers
from dataclasses import dataclass

import numpy as np

TWO_OVER_PI = 2.0 / np.pi

#: scaled-residual target of every solve and corrector; a real-axis root's acceptance
RESIDUAL_TARGET = 1e-12
RESIDUAL_ACCEPT = 1e-10
NEWTON_MAX_STEPS = 50
#: bound on |Re g| and |Im g| of every coupling the library accepts
COUPLING_LIMIT = 1e6


class SolverError(RuntimeError):
    """Root search failed; carries the last iterate for diagnostics."""

    def __init__(self, message, g=None, k=None):
        super().__init__(message)
        self.g = g
        self.k = k


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1

    @classmethod
    def of_level(cls, n: int) -> "Parity":
        return cls.EVEN if n % 2 == 0 else cls.ODD

    @property
    def bound_level(self) -> int:
        """Label of the family's bound-capable branch (0 or 1)."""
        return self.value

    @property
    def real_branch_point(self) -> float:
        """Real coupling where the family's k=0 degeneracy sits."""
        return 0.0 if self is Parity.EVEN else -TWO_OVER_PI


@dataclass(frozen=True)
class BetheState:
    """One quasi-momentum branch value: label n, coupling g, momentum k."""

    n: int
    g: complex
    k: complex
    parity: Parity

    def __post_init__(self):
        if Parity.of_level(self.n) is not self.parity:
            raise ValueError(
                f"level {self.n} belongs to the "
                f"{Parity.of_level(self.n).name.lower()} family")

    def scaled_residual(self) -> float:
        return scaled_bethe_residual(self.parity, self.g, self.k)


@dataclass(frozen=True)
class EnergyLevel:
    kbar: int
    n: int
    energy: complex


def check_coupling(g):
    """Raise ValueError unless every coupling in g lies in the domain."""
    g = np.asarray(g)
    bad = g[~(np.maximum(np.abs(g.real), np.abs(g.imag)) <= COUPLING_LIMIT)]
    if bad.size and not np.isfinite(bad[0]):
        raise ValueError(f"{bad[0]} is not a finite coupling")
    if bad.size:
        raise ValueError(f"coupling {bad[0]} lies outside the coupling domain "
                         f"|Re g|, |Im g| <= {COUPLING_LIMIT:g}")


def bethe_residual(parity: Parity, g, k):
    """Pole-free residual whose zeros are the quasi-momentum branches.

    Even parity: k sin(pi k/2) - g cos(pi k/2).
    Odd parity:  k cos(pi k/2) + g sin(pi k/2).
    Accepts scalars or arrays; entire in both arguments, no poles.
    """
    h = 0.5 * np.pi * k
    if parity is Parity.EVEN:
        return k * np.sin(h) - g * np.cos(h)
    return k * np.cos(h) + g * np.sin(h)


def branch_point_function(g, k):
    """r(g, k) = k^2 + g^2 + 2 g/pi; zero exactly where dJ/dk = 0."""
    return k * k + g * g + 2.0 * g / np.pi


def rotated_sqrt(w):
    """sqrt(w) in the window rotated by -pi/2: arguments of w in
    (pi/2, pi] count as negative, so the cut runs along the positive
    imaginary axis and sqrt(-1) = -i.  Elementwise on arrays; a scalar
    gives a numpy scalar."""
    w = np.asarray(w, dtype=complex)
    s = np.sqrt(w)
    return np.where(np.angle(w) > 0.5 * np.pi, -s, s)[()]


def residual_k_derivative(parity: Parity, g, k):
    """d/dk of `bethe_residual` at fixed g."""
    h = 0.5 * np.pi * k
    if parity is Parity.EVEN:
        return np.sin(h) * (1.0 + 0.5 * np.pi * g) + h * np.cos(h)
    return np.cos(h) * (1.0 + 0.5 * np.pi * g) - h * np.sin(h)


def residual_scale(parity: Parity, g, k):
    """Evaluation-error magnitude of the residual, floored at 1.

    Sum of the term magnitudes plus the argument sensitivity
    |h| * |d(terms)/dh|, which is the scale of unavoidable floating
    point error in the residual.  Dividing the raw residual by this
    gives a convergence measure that stays meaningful for bound states
    (where the terms grow like exp(pi |Im k| / 2) and cancel) and for
    very large couplings (where cos or sin sits near a zero and the
    argument reduction error is amplified by g).
    """
    h = 0.5 * np.pi * k
    sh, ch = np.abs(np.sin(h)), np.abs(np.cos(h))
    ak, ag, ah = np.abs(k), np.abs(g), np.abs(h)
    if parity is Parity.EVEN:
        s = ak * sh + ag * ch + ah * (ak * ch + ag * sh)
    else:
        s = ak * ch + ag * sh + ah * (ak * sh + ag * ch)
    return np.maximum(s, 1.0)


#: |Im(pi k/2)| beyond which `residual_terms` rescales sin and cos; the
#: unscaled terms overflow the double range near 709
DEEP_IM_H = 300.0


def terms_from_trig(parity, g, k, h, sin_h, cos_h, floor):
    """Residual, k-derivative and error scale from sin(h) and cos(h)."""
    sh, ch = np.abs(sin_h), np.abs(cos_h)
    ak, ag, ah = np.abs(k), np.abs(g), np.abs(h)
    if parity is Parity.EVEN:
        r = k * sin_h - g * cos_h
        dr = sin_h * (1.0 + 0.5 * np.pi * g) + h * cos_h
        s = ak * sh + ag * ch + ah * (ak * ch + ag * sh)
    else:
        r = k * cos_h + g * sin_h
        dr = cos_h * (1.0 + 0.5 * np.pi * g) - h * sin_h
        s = ak * ch + ag * sh + ah * (ak * sh + ag * ch)
    return r, dr, np.maximum(s, floor)


def unscaled_residual_terms(parity: Parity, g, k):
    """(r, dr, scale, 0.0): `residual_terms` without its depth test.

    Bit-identical to `bethe_residual`, `residual_k_derivative` and
    `residual_scale`.  For callers that know every |Im(pi k/2)| is
    well inside DEEP_IM_H; past about 709 the terms overflow.
    """
    h = 0.5 * np.pi * k
    return terms_from_trig(parity, g, k, h, np.sin(h), np.cos(h), 1.0) + (0.0,)


def residual_terms(parity: Parity, g, k):
    """Residual, its k-derivative and its error scale from one sin/cos.

    Returns (r, dr, scale, log_factor): the true residual, derivative
    and scale are r, dr and scale times exp(log_factor).  Where
    |Im h| <= DEEP_IM_H (h = pi k/2) the factor is 1 (log_factor 0) and
    the three values are bit-identical to `bethe_residual`,
    `residual_k_derivative` and `residual_scale`.  Beyond it sin and
    cos are multiplied by exp(-|Im h|), which keeps every term finite
    at deep bound momenta; log_factor is then |Im h| and the scale's
    floor of 1 becomes exp(-|Im h|).  r/dr and r/scale are unchanged by
    the factor.  A rescaled scale that still overflows (far outside the
    domain) is returned as NaN, so no residual passes against it.
    Accepts scalars or arrays; for arrays log_factor has the shape of r
    on every path.
    """
    h = 0.5 * np.pi * k
    y = np.imag(h)
    deep = abs(y) > DEEP_IM_H  # a numpy bool for scalar k: np.any is slow
    if not (deep.any() if isinstance(deep, np.ndarray) else deep):
        r, dr, scale, lf = unscaled_residual_terms(parity, g, k)
        return r, dr, scale, np.zeros(np.shape(r)) if np.ndim(r) else lf
    # sin(x + iy) exp(-|y|) = sin(x) cosh_r + i cos(x) sinh_r and
    # cos(x + iy) exp(-|y|) = cos(x) cosh_r - i sin(x) sinh_r, with
    # cosh_r = cosh(y) exp(-|y|) and sinh_r = sinh(y) exp(-|y|)
    lf = np.where(deep, np.abs(y), 0.0)
    x = np.real(h)
    damp = np.exp(-2.0 * lf)
    cosh_r = 0.5 * (1.0 + damp)
    sinh_r = 0.5 * np.copysign(1.0 - damp, y)
    sin_x, cos_x = np.sin(x), np.cos(x)
    shallow = np.where(deep, 0.0, h)  # deep entries would overflow
    sin_h = np.where(deep, sin_x * cosh_r + 1j * (cos_x * sinh_r), np.sin(shallow))
    cos_h = np.where(deep, cos_x * cosh_r - 1j * (sin_x * sinh_r), np.cos(shallow))
    with np.errstate(over="ignore", invalid="ignore"):
        r, dr, scale = terms_from_trig(parity, g, k, h, sin_h, cos_h, np.exp(-lf))
    scale = np.where(deep & np.isinf(scale), np.nan, scale)
    return r, dr, scale, lf


def scaled_bethe_residual(parity: Parity, g, k) -> float:
    """|bethe_residual| / residual_scale, stable for deep bound momenta.

    Evaluated by `residual_terms`, whose common factor cancels here.
    """
    r, _, scale, _ = residual_terms(parity, complex(g), complex(k))
    return float(abs(r) / scale)


@np.errstate(over="ignore", invalid="ignore")
def newton_correct(parity: Parity, g, k0, *, tol):
    """Newton iteration on the residual in k at fixed complex g.

    Returns (k, scaled_residual, converged) after at most five damped
    steps: the caller owns step-size control and treats non-convergence
    as the signal to shrink.  A start point with |Im pi k/2| above
    DEEP_IM_H is corrected through the overflow-safe `residual_terms`;
    the Newton step is the same, since r and dr carry the same factor.
    An unscaled call whose iterates drift past DEEP_IM_H stays finite:
    the unscaled terms overflow only near |Im pi k/2| = 709.  Terms
    that leave the double range come back as inf or NaN without a
    numpy warning, and a point whose error scale overflowed is not
    converged: its scaled residual is NaN.
    """
    k = complex(k0)
    deep = abs(0.5 * np.pi * k.imag) > DEEP_IM_H
    terms = residual_terms if deep else unscaled_residual_terms
    r, dr, scale, lf = terms(parity, g, k)
    for _ in range(5):
        if abs(r) / scale < tol and scale < np.inf:
            return k, float(abs(r) / scale), True
        if dr == 0:
            break
        step = r / dr
        for test in range(5):  # the fourth halving is taken untested
            r_t, dr_t, scale_t, lf_t = terms(parity, g, k - step)
            if test == 4 or _no_larger(r_t, lf_t, abs(r), lf):
                break
            step *= 0.5
        k, r, dr, scale, lf = k - step, r_t, dr_t, scale_t, lf_t
    scaled = float(abs(r) / scale) if scale < np.inf else np.nan
    return k, scaled, scaled < tol


def _no_larger(r_trial, lf_trial, size, lf):
    """Whether the true |r_trial| is at most the true size, given kernel
    values with log factors lf_trial and lf: both taken at one scale."""
    return np.abs(r_trial) * np.exp(lf_trial - lf) <= size


def newton_correct_array(parity: Parity, g, k0, *, tol, max_iter: int = 5):
    """(k, scaled_residual, converged) of `newton_correct_with_step`."""
    return newton_correct_with_step(parity, g, k0, tol=tol, max_iter=max_iter)[:3]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def newton_correct_with_step(parity: Parity, g, k0, *, tol, max_iter: int = 5):
    """`newton_correct` applied to every element of an array of points.

    g broadcasts against k0.  Each element follows the scalar rule: it
    stops once its scaled residual is below tol or its derivative
    vanishes, and otherwise takes a Newton step halved at most four
    times while the residual grows.  Stopped elements are frozen, so
    each iteration works only on the rest.  Returns (k, scaled_residual,
    converged, step) arrays of the broadcast shape, where step is the
    next Newton step r/dr at k (0 where dr = 0).  Overflow is handled as
    there, without a numpy warning.

    Whether to evaluate through the overflow-safe `residual_terms` is
    decided once per call: only when some start point has
    |Im pi k/2| above DEEP_IM_H, so calls away from the deep bound
    branch run the unscaled operations.  In either mode every element with
    |Im pi k/2| <= DEEP_IM_H sees the unscaled values; deep elements
    compare a trial residual with the current one at one scale,
    |r_trial| exp(lf_trial - lf) <= |r|.
    """
    g, k = np.broadcast_arrays(np.asarray(g, dtype=complex),
                               np.asarray(k0, dtype=complex))
    shape = k.shape
    g = g.ravel()
    k = k.ravel().copy()
    scaled = np.empty(k.size)
    final_step = np.empty(k.size, dtype=complex)
    live = np.arange(k.size)
    deep = k.size > 0 and 0.5 * np.pi * float(np.abs(k.imag).max()) > DEEP_IM_H
    terms = residual_terms if deep else unscaled_residual_terms
    r, dr, scale, lf = terms(parity, g, k)  # always the terms at k[live]
    # max_iter Newton steps; the extra sweep only measures the last iterate
    for sweep in range(max_iter + 1):
        size = np.abs(r)
        s = np.where(scale < np.inf, size / scale, np.nan)
        scaled[live] = s
        moves = dr != 0
        step = r / dr
        if not moves.all():
            step[~moves] = 0.0
        final_step[live] = step
        if sweep == max_iter:
            break
        go = ~(s < tol) & moves
        live, step, size = live[go], step[go], size[go]
        if deep:
            lf = lf[go]
        if live.size == 0:
            break
        gl, kl = g[live], k[live]
        # a trial's terms are the next sweep's once its test accepts it
        r, dr, scale, lf_next = terms(parity, gl, kl - step)
        damp = np.flatnonzero(~_no_larger(r, lf_next, size, lf) if deep
                              else ~(np.abs(r) <= size))
        for test in range(4):  # the fourth halving is taken untested
            if damp.size == 0:
                break
            step[damp] *= 0.5
            r_t, dr_t, scale_t, lf_t = terms(parity, gl[damp], kl[damp] - step[damp])
            if deep:
                kept = _no_larger(r_t, lf_t, size[damp], lf[damp]) | (test == 3)
                lf_next[damp[kept]] = lf_t[kept]
            else:
                kept = (np.abs(r_t) <= size[damp]) | (test == 3)
            at = damp[kept]
            r[at], dr[at], scale[at] = r_t[kept], dr_t[kept], scale_t[kept]
            damp = damp[~kept]
        k[live] = kl - step
        lf = lf_next
    return (k.reshape(shape), scaled.reshape(shape), (scaled < tol).reshape(shape),
            final_step.reshape(shape))


def newton_polish(parity: Parity, g, k, *, tol=RESIDUAL_TARGET):
    """(k, scaled_residual) of `newton_correct` at tol: at most five
    damped Newton steps in k at fixed g, without raising."""
    return newton_correct(parity, g, k, tol=tol)[:2]


def _bracket_terms(parity: Parity, bound, g, x):
    """(f, df, scaled residual) at x of the equation solved in each bracket.

    Real branches solve the Bethe residual in k.  Where bound is set,
    kappa q + g = 0 in kappa = i k, q = tanh(pi kappa/2) (n = 0) or its
    inverse (n = 1): the residual at k = -i kappa over -cosh(pi kappa/2)
    or -i sinh(pi kappa/2), finite where those overflow, as is the error
    scale (floor included) over the same factor.
    """
    f, df, scale, _ = unscaled_residual_terms(parity, g, x)
    s = np.abs(f) / scale
    if bound.any():
        h = 0.5 * np.pi * x
        q, c = ((np.tanh(h), np.cosh(h)) if parity is Parity.EVEN
                else (1.0 / np.tanh(h), np.sinh(h)))
        fb, ag = x * q + g, np.abs(g)
        f, df = np.where(bound, fb, f), np.where(bound, q + h * (1.0 - q * q), df)
        scale = np.maximum(x * q + ag + h * (x + ag * q), 1.0 / c)
        s = np.where(bound, np.abs(fb) / scale, s)
    return f, df, s


def _rtsafe(parity: Parity, bound, g, lo, hi, start, tol: float):
    """Root of each element's `_bracket_terms` equation in [lo, hi], NaN
    where none passes RESIDUAL_ACCEPT, from the larger of the chord's zero
    and start (see the module docstring)."""
    # the bound terms overflow at large kappa and |g|: f stays finite there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_lo, _, s_lo = _bracket_terms(parity, bound, g, lo)
        f_hi, _, s_hi = _bracket_terms(parity, bound, g, hi)
        change = (f_lo < 0) != (f_hi < 0)
        x = np.where(change, np.maximum(lo + (hi - lo) * (f_lo / (f_lo - f_hi)), start),
                     np.where(s_lo <= s_hi, lo, hi))
        xl = np.where(f_lo < 0, lo, hi)  # the end where f < 0
        xh = np.where(f_lo < 0, hi, lo)
        live = change
        for _ in range(NEWTON_MAX_STEPS):
            if not live.any():
                break
            f, df, s = _bracket_terms(parity, bound, g, x)
            neg = f < 0
            xl, xh = np.where(neg, x, xl), np.where(neg, xh, x)
            step = f / df
            t = x - step
            inside = (t - xl) * (t - xh) <= 0.0
            newton = inside & (np.abs(2.0 * step) <= np.abs(xh - xl))
            done = (s < tol) & (np.abs(step) <= tol * np.abs(x)) & inside
            x = np.where(live, np.where(done | newton, t, 0.5 * (xl + xh)), x)
            live = live & ~done
        passed = _bracket_terms(parity, bound, g, x)[2] <= RESIDUAL_ACCEPT
    return np.where(passed, x, np.nan)


def is_label(n) -> bool:
    """Whether n is a branch label: a Python or numpy integer, never a
    bool; an array of labels has an integer dtype."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def real_axis_k(n, g, *, tol: float = RESIDUAL_TARGET) -> np.ndarray:
    """k_n(g) on the real coupling axis for labels n (`is_label`, in
    0..2**53) and g (real) that broadcast against each other, as a
    complex array.  Each point is solved alone as the module docstring
    says, so its result does not depend on the other points of the call;
    one that does not pass RESIDUAL_ACCEPT within NEWTON_MAX_STEPS is NaN."""
    n, g = np.broadcast_arrays(np.asarray(n), np.asarray(g, dtype=float))
    if not (n.dtype.kind in "iu" and np.all((n >= 0) & (n <= 2 ** 53))):
        raise ValueError("branch label n must be an integer, not a bool, in 0..2**53")
    check_coupling(g)
    shape = n.shape
    n, g = n.ravel().astype(int), g.ravel()
    k = n.astype(complex)  # the free value at g = 0
    # the odd family's real branch point: k_1 reaches zero exactly
    k[(n == 1) & (g == -TWO_OVER_PI)] = 0.0
    solve = (g != 0.0) & ((n != 1) | (g != -TWO_OVER_PI))
    bound = ((n == 0) & (g < 0)) | ((n == 1) & (g < -TWO_OVER_PI))
    lo = np.where(g > 0, n, np.maximum(n - 1.0, 0.0))
    hi = lo + 1.0
    lo[(n == 1) & (g < 0)] = 1e-13
    hi[bound] = np.maximum(1.0, -g[bound]) + 1.0
    k0 = np.sqrt(TWO_OVER_PI * np.abs(g))
    start = np.where((n == 0) & (k0 < hi), k0, lo)
    for parity in Parity:
        i = np.flatnonzero(solve & (n % 2 == parity.value))
        if i.size:
            x = _rtsafe(parity, bound[i], g[i], lo[i], hi[i], start[i], tol)
            k[i] = np.where(np.isnan(x), np.nan + 1j * np.nan,
                            np.where(bound[i], x * -1j, x))  # Re k = +0.0 when bound
    return k.reshape(shape)


def solve_k_real(n: int, g: float, *, tol: float = RESIDUAL_TARGET) -> BetheState:
    """Quasi-momentum k_n(g) for real coupling g: `real_axis_k` on one
    point, raising SolverError where that is NaN."""
    k = complex(real_axis_k(n, g, tol=tol))
    n, g = int(n), float(g)
    if cmath.isnan(k):
        raise SolverError(f"no root of branch n={n} at g={g} passes the residual check", g=g)
    return BetheState(n, g, k, Parity.of_level(n))


def energy(kbar: int, state: BetheState) -> EnergyLevel:
    """Total energy E = (kbar^2 + k^2) / 2 of a two-boson level.

    kbar and the branch label must have equal parity (momentum
    superselection of the symmetric two-body problem).
    """
    if (kbar - state.n) % 2 != 0:
        raise ValueError(
            f"kbar={kbar} and n={state.n} carry different parity; "
            "no such two-boson level exists"
        )
    e = 0.5 * (kbar * kbar + state.k * state.k)
    return EnergyLevel(int(kbar), state.n, complex(e))


def asymptotic_quasimomentum(n: int, sign: int) -> int:
    """Exact integer limit of k_n at infinite coupling of the given sign.

    k_n(+inf) = n + 1 for every n; k_n(-inf) = n - 1 for n > 1.  The
    bound branches (n = 0, 1) diverge along the negative imaginary axis
    at -inf, which has no integer label; requesting them raises, as does
    a label n that is not an integer >= 0 (`is_label`).
    """
    if not (is_label(n) and n >= 0):
        raise ValueError(f"branch label n must be an integer >= 0, got {n!r}")
    if not (is_label(sign) and sign in (1, -1)):
        raise ValueError("sign selects the coupling infinity: +1 or -1")
    if sign > 0:
        return n + 1
    if n > 1:
        return n - 1
    raise ValueError("bound branches have no finite quasi-momentum at g -> -inf")
