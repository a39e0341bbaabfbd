"""Relative-coordinate profiles and quadrature oracles.

The relative coordinate x of the two bosons lives on [0, 2*pi] with the
contact interaction sitting at x = 0 and its periodic image at x = 2*pi.
Between collisions an eigenfunction is a free wave, even or odd about
the midpoint x = pi:

    psi_n(x) = a(k) / sqrt(2*pi) * cos(k (x - pi) / 2)    n even
    psi_n(x) = a(k) / sqrt(2*pi) * sin(k (x - pi) / 2)    n odd

with the quasi-momentum k fixed by the matching condition solved in
:mod:`lieb2b.bethe`.  The center-of-mass plane wave carries an integer
wavenumber of the same parity as n; it factors out of every normalized
overlap, and levels of different parity never pair.

At complex coupling the problem is not Hermitian.  Left eigenfunctions
use the quasi-momentum of the conjugate coupling, k_n(conj(g)), which
relates to k_n(g) by conjugation up to a sign s.  In every pairing
integral the s factors from the profile and from the left normalization
cancel, so the conjugated left profile has a closed form in k_n(g)
alone, 2 / ((1 +- sinc(k)) a(k)) / sqrt(2*pi) times the same trig
factor, valid on the whole sheet.  With the normalization below,
a(k)**2 (1 +- sinc(k)) = 2, so that prefactor is a(k) itself: the
conjugated left profile is the right profile, and every pairing is the
bilinear integral of two right profiles.  `right_profiles` returns one
profile per quasi-momentum, a row per level sampled at the nodes x.

The default normalization is the parallel-transport choice

    a = sqrt(2) * (1 + sinc(k))**(-1/2)    n even
    a = sqrt(2) * (1 - sinc(k))**(-1/2)    n odd

where sinc(k) = sin(pi k)/(pi k), real positive at real coupling, with
a(0) = 1 on the even branch.  It makes the diagonal of the gauge
connection vanish at real g, so transport in this gauge is parallel
transport.  Any other gauge would multiply the right profile by a factor
and the conjugated left profile by its inverse; the bilinear pairing
holds in this gauge only.

The oracle at the bottom validates the closed-form connection through
an independent route: Gauss-Legendre overlap quadrature and a central
difference in the coupling with one Richardson step.  It never touches
the D-function or connection formulas of :mod:`lieb2b.holonomy`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bethe import MAX_LEVELS, Parity, SolverError, is_label, real_axis_k, rotated_sqrt

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
    """Parallel-transport normalization constant a(k), elementwise;
    ValueError where 1 +- sinc(k), the self-pairing 2 / a(k)**2, vanishes.

    The square root keeps the branch reached by continuing from the
    scattering region through the lower half of the coupling plane:
    when 1 -+ sinc(k) leaves the principal window (argument beyond
    pi/2) the root flips sign (`bethe.rotated_sqrt`).  On the odd
    bound branch this makes the profile real and positive instead of
    real and negative.
    """
    s = sinc_pi(k)
    w = 1.0 + s if parity is Parity.EVEN else 1.0 - s
    if np.any(w == 0.0):
        raise ValueError(f"normalization denominator vanishes at k = "
                         f"{np.asarray(k)[w == 0.0]}: two levels are degenerate there")
    return np.sqrt(2.0) / rotated_sqrt(w)


def _trig(parity: Parity, k, x):
    arg = 0.5 * k[:, None] * (np.asarray(x) - np.pi)
    return np.cos(arg) if parity is Parity.EVEN else np.sin(arg)


def right_profiles(parity: Parity, k, x):
    """Right profiles psi(x), one row per quasi-momentum of ``k``."""
    k = np.asarray(k, dtype=complex)
    return (normalization_pt(parity, k) / np.sqrt(TWO_PI))[:, None] * _trig(parity, k, x)


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    # map [-1, 1] onto [0, 2*pi]
    return np.pi * (x + 1.0), np.pi * w


def biorthonormality_defect(levels, g, k_values=None) -> float:
    """Max deviation of the pairing matrix from the identity.

    At real g quasi-momenta are solved on the spot; for complex g pass
    the sheet values.  Levels, at least one, must share one parity; the
    relative integrals are quadratured on 256 Gauss-Legendre nodes.
    """
    levels = tuple(levels)
    if not levels:
        raise ValueError("the pairing needs at least one level, got none")
    parity = Parity.of_level(levels[0])
    if any(Parity.of_level(n) is not parity for n in levels):
        raise ValueError(f"levels {levels} mix the even and odd families")
    if k_values is None:
        k_values = real_axis_k(levels, g)
        if np.isnan(k_values).any():
            raise SolverError(f"no real-axis root for levels {levels} at g={g}", g=g)
    x, w = _gauss_legendre(256)
    psi = right_profiles(parity, k_values, x)
    pairing = (psi * w) @ psi.T
    return float(np.max(np.abs(pairing - np.eye(len(levels)))))


def _difference_quotient(parity, levels, g, dg, nodes):
    """Matrix of i * <psi_L_i(g), (psi_j(g+dg) - psi_j(g-dg)) / (2 dg)>."""
    x, w = _gauss_legendre(nodes)
    k = real_axis_k(np.asarray(levels), np.array([[g], [g + dg], [g - dg]]))
    if np.isnan(k).any():
        raise SolverError(f"no real-axis root for levels {levels} near g={g}", g=g)
    left = right_profiles(parity, k[0], x)  # the conjugated left profiles
    dpsi = (right_profiles(parity, k[1], x) - right_profiles(parity, k[2], x)) / (2.0 * dg)
    return 1j * ((left * w) @ dpsi.T)


def overlap_connection_oracle(n_levels: int, g: float, dg: float = 1e-5, *,
                              parity: Parity = Parity.EVEN, nodes: int = 256):
    """Finite-difference gauge connection over one parity family at real g.

    Entry (i, j) is i * <psi_L_i | d psi_j / d g> on the levels n_b,
    n_b + 2, ..., by a central difference of finite step dg > 0 with one
    Richardson step; its points g +- dg must lie in the coupling domain.
    n_levels must be an integer from 2 to MAX_LEVELS, refused before any
    allocation, and nodes an integer >= 1.
    """
    if not (is_label(n_levels) and 2 <= n_levels <= MAX_LEVELS):
        raise ValueError(f"the oracle needs an integer 2 <= n_levels <= {MAX_LEVELS}, "
                         f"got {n_levels!r}")
    if not (is_label(nodes) and nodes >= 1):
        raise ValueError(f"the oracle needs an integer number of nodes >= 1, got {nodes!r}")
    if not 0.0 < dg < np.inf:
        raise ValueError(f"the oracle needs a finite step dg > 0, got {dg!r}")
    levels = tuple(parity.bound_level + 2 * i for i in range(n_levels))
    coarse = _difference_quotient(parity, levels, g, dg, nodes)
    fine = _difference_quotient(parity, levels, g, 0.5 * dg, nodes)
    return (4.0 * fine - coarse) / 3.0
