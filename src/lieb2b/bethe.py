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
limits are k_n(+inf) = n + 1 and, for n > 1, k_n(-inf) = n - 1; callers
represent infinite coupling by a large proxy value.

Energies are E_{kbar,n}(g) = (kbar^2 + k_n(g)^2) / 2 with kbar and n of
equal parity.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

TWO_OVER_PI = 2.0 / np.pi

#: default solver tolerances (scaled residual); see RunConfig for overrides
RESIDUAL_TARGET = 1e-12
RESIDUAL_ACCEPT = 1e-10
NEWTON_MAX_STEPS = 50

#: Brent root-finder tolerances: 2*delta = xtol + rtol*|x| ends the search
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAX_ITER = 100


class BranchCutWarning(UserWarning):
    """The principal arctan was evaluated on its branch cut."""


class SolverError(RuntimeError):
    """Root search failed; carries the last iterate for diagnostics."""

    def __init__(self, message, g=None, k=None, residual=None):
        super().__init__(message)
        self.g = g
        self.k = k
        self.residual = residual


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

    def residual(self) -> complex:
        return bethe_residual(self.parity, self.g, self.k)

    def scaled_residual(self) -> float:
        return scaled_bethe_residual(self.parity, self.g, self.k)


@dataclass(frozen=True)
class EnergyLevel:
    kbar: int
    n: int
    energy: complex


def j_function(g, k):
    """J(g, k) = k + (2/pi) arctan(k/g), principal branch of arctan.

    On a branch k_n at real g > 0 this evaluates to the integer n + 1.
    Raises ValueError for g = 0, where k/g is undefined.  When k/g falls
    on the branch cut of the principal inverse tangent (the imaginary
    axis at |Im| >= 1, which happens for deeply bound states) the
    principal value is returned and a BranchCutWarning is emitted.
    """
    g = complex(g)
    k = complex(k)
    if g == 0:
        raise ValueError("J(g, k) is undefined at g = 0 (real branch point)")
    z = k / g
    if z.real == 0.0 and abs(z.imag) >= 1.0:
        warnings.warn(
            "arctan argument %r lies on the principal branch cut; "
            "principal value returned" % (z,),
            BranchCutWarning,
            stacklevel=2,
        )
    return complex(k + TWO_OVER_PI * np.arctan(z))


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


def _terms_from_trig(parity, g, k, h, sin_h, cos_h, floor):
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
    return _terms_from_trig(parity, g, k, h, np.sin(h), np.cos(h), 1.0) + (0.0,)


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
    the factor.  A rescaled scale that still overflows (|k| beyond
    about 1e154) is returned as NaN, so no residual passes against it.
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
        r, dr, scale = _terms_from_trig(parity, g, k, h, sin_h, cos_h, np.exp(-lf))
    scale = np.where(deep & np.isinf(scale), np.nan, scale)
    return r, dr, scale, lf


def scaled_bethe_residual(parity: Parity, g, k) -> float:
    """|bethe_residual| / residual_scale, stable for deep bound momenta.

    Evaluated by `residual_terms`, whose common factor cancels here.
    """
    r, _, scale, _ = residual_terms(parity, complex(g), complex(k))
    return float(abs(r) / scale)


def newton_polish(parity: Parity, g, k, *, tol=RESIDUAL_TARGET):
    """Up to eight damped Newton steps on the residual in k at fixed g.

    Returns (k, scaled_residual).  Used to tighten real-axis roots
    produced by bracketing; does not raise on stagnation, callers
    decide what residual level is acceptable.  Each iterate takes r,
    dr and the scale from one `unscaled_residual_terms` call, so k must
    stay well inside |Im(pi k/2)| <= DEEP_IM_H.
    """
    k = complex(k)
    g = complex(g)
    r, dr, scale, _ = unscaled_residual_terms(parity, g, k)
    best_k, best = k, abs(r) / scale
    for _ in range(8):
        if dr == 0:
            break
        step = r / dr
        # plain damping: halve until the residual does not grow
        for _ in range(5):
            trial = k - step
            r_new = bethe_residual(parity, g, trial)
            if abs(r_new) <= abs(r) or abs(step) < 1e-16 * max(1.0, abs(k)):
                break
            step *= 0.5
        k = k - step
        r, dr, scale, _ = unscaled_residual_terms(parity, g, k)
        scaled = abs(r) / scale
        if scaled < best:
            best, best_k = scaled, k
        if scaled < tol:
            return k, float(scaled)
    return best_k, float(best)


def _brent_root(f, xa: float, xb: float) -> float:
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    A line-for-line port of the rule scipy.optimize.brentq runs (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), so it
    returns the same double: a secant or inverse-quadratic step while it
    is short enough, a bisection otherwise.  f is called with floats and
    its values are taken as floats.  Raises ValueError when f(xa) and
    f(xb) share a sign or f returns NaN, SolverError after
    _BRENT_MAX_ITER iterations without convergence.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre != fpre or fcur != fcur:
        raise ValueError(f"f is NaN at an end of [{xpre}, {xcur}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f has no sign change in [{xpre}, {xcur}]")
    xtol, rtol = _BRENT_XTOL, _BRENT_RTOL
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # IEEE gives inf or NaN: both bisect below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise ValueError(f"f({xcur!r}) is NaN; the search cannot go on")
    raise SolverError(
        f"Brent search did not converge in {_BRENT_MAX_ITER} iterations "
        f"(last iterate {xcur!r})", k=xcur)


def _bound_kappa_even(g: float) -> float:
    """kappa > 0 with kappa*tanh(pi kappa/2) = -g, for n = 0, g < 0."""
    f = lambda kappa: kappa * np.tanh(0.5 * np.pi * kappa) + g
    hi = max(1.0, -g) + 1.0
    return _brent_root(f, 0.0, hi)


def _bound_kappa_odd(g: float) -> float:
    """kappa > 0 with kappa/tanh(pi kappa/2) = -g, for n = 1, g < -2/pi."""

    def f(kappa):
        x = 0.5 * np.pi * kappa
        # kappa/tanh(x) -> 2/pi as kappa -> 0
        return kappa / np.tanh(x) + g if kappa > 0 else TWO_OVER_PI + g

    hi = max(1.0, -g) + 1.0
    return _brent_root(f, 1e-13, hi)


def _real_bracket(n: int, g: float) -> tuple[float, float]:
    """Bracketing interval for the real root of branch n at coupling g."""
    if g > 0:
        return (float(n), float(n + 1)) if n > 0 else (0.0, 1.0)
    # g < 0 here; bound regions are handled before this is called
    if n == 1:
        return (1e-13, 1.0)
    return (float(n - 1), float(n))


def solve_k_real(n: int, g: float, *, tol: float = RESIDUAL_TARGET) -> BetheState:
    """Quasi-momentum k_n(g) for real coupling g.

    Returns the branch with k_n(0) = n, continued smoothly along the
    real axis; bound regions (n = 0 with g < 0, n = 1 with g < -2/pi)
    return k on the negative imaginary axis per the lower-half-plane
    continuation convention.  Real roots come from Brent's method on a
    sign-changing bracket of the pole-free residual followed by Newton
    polish; bound roots from Brent's method on the equivalent real
    equations in kappa = i*k.
    """
    if n < 0 or int(n) != n:
        raise ValueError("branch label n must be a non-negative integer")
    n = int(n)
    g = float(g)
    parity = Parity.of_level(n)

    if g == 0.0:
        return BetheState(n, 0.0, complex(n), parity)

    if n == 0 and g < 0:
        kappa = _bound_kappa_even(g)
        return BetheState(n, g, complex(0.0, -kappa), parity)
    if n == 1 and g < -TWO_OVER_PI:
        kappa = _bound_kappa_odd(g)
        return BetheState(n, g, complex(0.0, -kappa), parity)
    if n == 1 and g == -TWO_OVER_PI:
        # real branch point of the odd family: k_1 reaches zero exactly
        return BetheState(n, g, 0.0 + 0.0j, parity)

    lo, hi = _real_bracket(n, g)
    f = lambda k: bethe_residual(parity, g, k)  # real for real g, k
    try:
        root = _brent_root(f, lo, hi)
    except ValueError as exc:
        # no sign change: at small |g| the round-off in sin/cos(pi n/2),
        # which grows like n*eps, can hide it, so polish from the free
        # value and keep the result if it is a root in the bracket
        k, scaled = newton_polish(parity, g, complex(n), tol=tol)
        slack = _BRENT_XTOL + _BRENT_RTOL * abs(k.real)
        if scaled <= RESIDUAL_ACCEPT and lo - slack <= k.real <= hi + slack:
            k_real = min(max(k.real, lo), hi)
            return BetheState(n, g, complex(k_real, 0.0), parity)
        raise SolverError(
            f"no sign change for n={n}, g={g} in [{lo}, {hi}]", g=g
        ) from exc
    k, scaled = newton_polish(parity, g, root, tol=tol)
    if scaled > RESIDUAL_ACCEPT:
        raise SolverError(
            f"residual {scaled:.3e} above acceptance for n={n}, g={g}",
            g=g, k=k, residual=scaled,
        )
    # the branch is real here; discard polish round-off in Im
    return BetheState(n, g, complex(k.real, 0.0), parity)


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
    at -inf, which has no integer label; requesting them raises.
    """
    if sign not in (1, -1):
        raise ValueError("sign selects the coupling infinity: +1 or -1")
    if sign > 0:
        return n + 1
    if n > 1:
        return n - 1
    raise ValueError("bound branches have no finite quasi-momentum at g -> -inf")
