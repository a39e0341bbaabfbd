"""Relative-coordinate eigenfunctions and quadrature oracles.

The relative coordinate x of the two bosons lives on [0, 2*pi] with the
contact interaction sitting at x = 0 and its periodic image at x = 2*pi.
Between collisions an eigenfunction is a free wave, even or odd about
the midpoint x = pi:

    psi_n(x) = a(k) / sqrt(2*pi) * cos(k (x - pi) / 2)    n even
    psi_n(x) = a(k) / sqrt(2*pi) * sin(k (x - pi) / 2)    n odd

with the quasi-momentum k fixed by the matching condition solved in
:mod:`lieb2b.bethe`.  The center-of-mass plane wave carries an integer
wavenumber kbar of the same parity as n; it factors out of every
normalized overlap.

At complex coupling the problem is not Hermitian.  Left eigenfunctions
use the quasi-momentum of the conjugate coupling, k_n(conj(g)), which
relates to k_n(g) by conjugation up to a sign s.  In every pairing
integral the s factors from the profile and from the left normalization
cancel, so the conjugated left profile has a closed form in k_n(g)
alone; :meth:`Eigenfunction.conjugated_profile` implements that form
and is valid on the whole sheet.

The default normalization is the parallel-transport choice

    a = sqrt(2) * (1 + sinc(k))**(-1/2)    n even
    a = sqrt(2) * (1 - sinc(k))**(-1/2)    n odd

where sinc(k) = sin(pi k)/(pi k), real positive at real coupling, with
a(0) = 1 on the even branch.  It makes the diagonal of the gauge
connection vanish at real g, so transport in this gauge is parallel
transport.  Any extra gauge factor multiplies the right profile and
divides the conjugated left profile, leaving all pairings invariant.

The oracle at the bottom validates the closed-form connection through
an independent route: Gauss-Legendre overlap quadrature and a central
difference in the coupling with one Richardson step.  It never touches
the D-function or connection formulas of :mod:`lieb2b.holonomy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bethe import Parity, SolverError, real_axis_k, rotated_sqrt, solve_k_real
from .holonomy import TruncationSpec

TWO_PI = 2.0 * np.pi
#: pi |Im k| beyond which sin(pi k) leaves the double range
SINC_IM_LIMIT = float(np.log(np.finfo(float).max))


def sinc_pi(k):
    """sin(pi k)/(pi k) for complex k, removable singularity filled in;
    ValueError past pi |Im k| = SINC_IM_LIMIT (about 709.8, a bound level
    at g below about -226), where sin(pi k) overflows."""
    k = np.asarray(k, dtype=complex)
    w = np.pi * k
    if np.any(np.abs(w.imag) > SINC_IM_LIMIT):
        raise ValueError(f"sinc(k) overflows past pi |Im k| = {SINC_IM_LIMIT:.6g}")
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    out = np.where(small, 1.0 - w * w / 6.0, np.sin(safe) / safe)
    if out.ndim == 0:
        return complex(out)
    return out


def normalization_pt(parity: Parity, k):
    """Parallel-transport normalization constant a(k).

    The square root keeps the branch reached by continuing from the
    scattering region through the lower half of the coupling plane:
    when 1 -+ sinc(k) leaves the principal window (argument beyond
    pi/2) the root flips sign (`bethe.rotated_sqrt`).  On the odd
    bound branch this makes the profile real and positive instead of
    real and negative.
    """
    s = sinc_pi(k)
    w = complex(1.0 + s) if parity is Parity.EVEN else complex(1.0 - s)
    if w == 0.0:
        raise ValueError(f"normalization denominator vanishes at k = {complex(k)}: "
                         "two levels are degenerate there")
    return np.sqrt(2.0) / rotated_sqrt(w)


class Side(enum.Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class Eigenfunction:
    """One relative-coordinate eigenfunction at coupling g.

    ``k`` is always the right-branch quasi-momentum k_n(g); a LEFT
    instance derives its own wavenumber from it through the conjugation
    sign relating k_n(conj(g)) to k_n(g).  That sign is inferred from k
    at real coupling (real k: +1, bound imaginary k: -1); off the real
    axis a LEFT function offers only `conjugated_profile`, which needs
    no sign.
    """

    n: int
    g: complex
    k: complex
    kbar: int | None = None
    side: Side = Side.RIGHT

    def __post_init__(self):
        if self.kbar is None:
            object.__setattr__(self, "kbar", self.n % 2)
        if (self.kbar - self.n) % 2:
            raise ValueError("total momentum kbar must share the parity of n")

    @property
    def parity(self) -> Parity:
        return Parity.of_level(self.n)

    def _s(self) -> int:
        if abs(complex(self.g).imag) > 1e-12:
            raise ValueError("conjugation sign is ambiguous off the real axis, "
                             "use conjugated_profile")
        return 1 if abs(complex(self.k).imag) <= abs(complex(self.k).real) else -1

    @property
    def pair_weight(self):
        """1 +- sinc(k), the parity-resolved self-pairing denominator."""
        s = sinc_pi(self.k)
        return 1.0 + s if self.parity is Parity.EVEN else 1.0 - s

    @property
    def normalization(self):
        """a(k) for a RIGHT function, the biorthogonal a_L for a LEFT one."""
        a = normalization_pt(self.parity, self.k)
        if self.side is Side.RIGHT:
            return a
        s_par = 1 if self.parity is Parity.EVEN else self._s()
        return np.conjugate(s_par * 2.0 / (self.pair_weight * a))

    def _trig(self, karg, x):
        arg = 0.5 * karg * (np.asarray(x) - np.pi)
        if self.parity is Parity.EVEN:
            return np.cos(arg)
        return np.sin(arg)

    def profile(self, x):
        """The wavefunction on [0, 2*pi]; LEFT side uses k_n(conj(g))."""
        if self.side is Side.RIGHT:
            return self.normalization / np.sqrt(TWO_PI) * self._trig(self.k, x)
        k_tilde = np.conjugate(self._s() * self.k)
        return self.normalization / np.sqrt(TWO_PI) * self._trig(k_tilde, x)

    def conjugated_profile(self, x):
        """Complex conjugate of the LEFT profile, as used in pairings.

        The s factors of the left wavenumber and the left normalization
        cancel, leaving a closed form in the right-branch k that is
        valid on the whole sheet, bound branches included.
        """
        a = normalization_pt(self.parity, self.k)
        return 2.0 / (self.pair_weight * a) / np.sqrt(TWO_PI) * self._trig(self.k, x)

    @classmethod
    def at_real_coupling(cls, n: int, g: float, side: Side = Side.RIGHT,
                         kbar: int | None = None):
        return cls(n, g, solve_k_real(n, g).k, kbar, side)


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    # map [-1, 1] onto [0, 2*pi]
    return np.pi * (x + 1.0), np.pi * w


def pair_overlap(left: Eigenfunction, right: Eigenfunction):
    """Biorthogonal pairing of a left and a right eigenfunction.

    Different center-of-mass wavenumbers are orthogonal exactly; equal
    ones contribute a factor one, so only the relative integral is
    quadratured, on 256 Gauss-Legendre nodes.
    """
    if left.kbar != right.kbar:
        return 0.0 + 0.0j
    x, w = _gauss_legendre(256)
    return np.sum(w * left.conjugated_profile(x) * right.profile(x))


def biorthonormality_defect(levels, g, k_values=None) -> float:
    """Max deviation of the pairing matrix from the identity.

    At real g quasi-momenta are solved on the spot; for complex g pass
    the sheet values.  Levels must share one parity (one kbar sector).
    """
    levels = tuple(levels)
    if k_values is None:
        k_values = real_axis_k(levels, g)
        if np.isnan(k_values).any():
            raise SolverError(f"no real-axis root for levels {levels} at g={g}", g=g)
    kbar = levels[0] % 2
    worst = 0.0
    for i, (ni, ki) in enumerate(zip(levels, k_values)):
        lf = Eigenfunction(ni, g, ki, kbar, Side.LEFT)
        for j, (nj, kj) in enumerate(zip(levels, k_values)):
            rf = Eigenfunction(nj, g, kj, kbar)
            val = pair_overlap(lf, rf)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return worst


def _difference_quotient(levels, g, dg, nodes):
    """Matrix of i * <psi_L_i(g), (psi_j(g+dg) - psi_j(g-dg)) / (2 dg)>."""
    x, w = _gauss_legendre(nodes)
    k = real_axis_k(np.asarray(levels), np.array([[g], [g + dg], [g - dg]]))
    if np.isnan(k).any():
        raise SolverError(f"no real-axis root for levels {levels} near g={g}", g=g)
    left = [Eigenfunction(n, g, kn, side=Side.LEFT).conjugated_profile(x)
            for n, kn in zip(levels, k[0])]
    plus = [Eigenfunction(n, g + dg, kn).profile(x) for n, kn in zip(levels, k[1])]
    minus = [Eigenfunction(n, g - dg, kn).profile(x) for n, kn in zip(levels, k[2])]
    m = len(levels)
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            dpsi = (plus[j] - minus[j]) / (2.0 * dg)
            out[i, j] = 1j * np.sum(w * left[i] * dpsi)
    return out


def overlap_connection_oracle(n_levels: int, g: float, dg: float = 1e-5, *,
                              parity: Parity = Parity.EVEN, nodes: int = 256):
    """Finite-difference gauge connection over one parity family at real g.

    Entry (i, j) is i * <psi_L_i | d psi_j / d g> on the levels n_b,
    n_b + 2, ..., by a central difference with one Richardson step; its
    points g +- dg must lie in the coupling domain.
    """
    levels = TruncationSpec(parity, n_levels).levels
    coarse = _difference_quotient(levels, g, dg, nodes)
    fine = _difference_quotient(levels, g, 0.5 * dg, nodes)
    return (4.0 * fine - coarse) / 3.0
