"""Spectral cycles: Hermitian coupling sweeps and exceptional-point contours.

Two kinds of closed journeys through the coupling plane rearrange the
two-boson levels.

The Hermitian cycle runs along the real axis, g0 -> +infinity, reenters
at -infinity, and returns to g0.  Adiabatic transport of a
nondegenerate level along the real axis never mixes levels, so the only
nontrivial step is the relabeling at infinity: the branch labeled n has
k -> n + 1 at +infinity, and the branch holding that same limit at
-infinity is labeled n + 2.  The net permutation is the upward shift
n -> n + 2, with the top of a truncated family exiting.  No
differential equation is integrated; the identity is checked
numerically at the edge of the coupling domain, +-COUPLING_LIMIT.

The same shift is produced, two levels at a time, by closed contours in
the complex plane that enclose exceptional points.  A closed contour's
permutation is read one way only: from the signed permutation that the
holonomy carries as ``monodromy``, matched exactly from the returned
quasi-momenta of the loop's end frame.  The parallel-transport matrix
of the same loop carries the identical permutation conjugated by the
transport of the approach corridor (a consequence of flatness: it
depends only on the loop's homotopy class) and a gauge factor, so its
entries are never thresholded.  The two pictures are reconciled by
:func:`chained_loop_holonomy`, which composes the small-circle
transports of the individual exceptional points in path order; its
product converges to the same closed-form chain monodromy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bethe import (COUPLING_LIMIT, BetheState, Parity, SolverError,
                    asymptotic_quasimomentum, check_coupling, energy, real_axis_k)
from .continuation import ComplexPath, circle_path
from .exceptional import enumerate_eps, find_ep
from .holonomy import (HolonomyMatrix, TruncationSpec, ep_loop_holonomy,
                       frame_at, frame_monodromy)

#: distance every exceptional point keeps from an `n_ep_contour`
CLEARANCE = 0.5
#: depth of `ep_chain_path`'s approach channel below the real axis
CHANNEL_DEPTH = 0.05


class PathConstructionError(ValueError):
    """The requested contour cannot keep its clearance from every EP."""


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one closed spectral journey.

    ``permutation`` maps each starting level label to the label it
    lands on; for an exiting level the image lies outside the
    truncation and the label is repeated in ``exiting``.  ``phases``
    holds the accompanying unimodular coefficients.
    """

    g0: float
    truncation: TruncationSpec
    kbar: int
    permutation: dict
    phases: dict
    energies_before: dict
    energies_after: dict
    exiting: tuple = ()
    holonomy: HolonomyMatrix | None = None


def _family_energies(trunc: TruncationSpec, g0: float) -> dict:
    # real g0 keeps k either real or purely imaginary, so E is real
    return {n: energy(trunc.base, BetheState(n, g0, complex(k), trunc.parity)).energy.real
            for n, k in zip(trunc.levels, frame_at(trunc, g0).k)}


def hermitian_cycle(g0: float, trunc: TruncationSpec) -> CycleResult:
    """Level bookkeeping of the real-axis cycle g0 -> +inf -> -inf -> g0.

    The flip at infinity is an index relabeling, justified by the shared
    integer limit of k_n(+inf) and k_{n+2}(-inf) and verified at the
    domain's edge +-COUPLING_LIMIT, which stands in for infinity.  The
    parallel-transport phases are all +1.  The top retained level hands
    its state to a label outside the truncation, reported in ``exiting``.
    """
    g0 = float(g0)
    energies_before = _family_energies(trunc, g0)  # refuses the real branch point
    kbar = trunc.base
    levels = trunc.levels
    # k_n(+proxy), k_{n+2}(-proxy) and k_{n+2}(g0) in one solve
    labels = np.array(levels)
    k = real_axis_k(np.stack([labels, labels + 2, labels + 2]),
                    np.array([[COUPLING_LIMIT], [-COUPLING_LIMIT], [g0]]))
    if np.isnan(k).any():
        raise SolverError(f"no real-axis root on the cycle through g0 = {g0}", g=g0)
    k_out, k_in, k_after = k.tolist()

    permutation = {}
    for n, ko, ki in zip(levels, k_out, k_in):
        # k_n(+inf) = k_{n+2}(-inf) = n + 1
        limit = asymptotic_quasimomentum(n, +1)
        partner = n + 2
        if abs(ko - ki) > 10.0 * limit / COUPLING_LIMIT:
            raise SolverError(
                f"levels {n} (+proxy) and {partner} (-proxy) do not meet: "
                f"k = {ko} vs {ki}", g=COUPLING_LIMIT, k=ko)
        permutation[n] = partner

    energies_after = {n: energy(kbar, BetheState(n + 2, g0, k, trunc.parity)).energy.real
                      for n, k in zip(levels, k_after)}
    phases = {n: 1.0 + 0.0j for n in levels}
    return CycleResult(g0, trunc, kbar, permutation, phases,
                       energies_before, energies_after, exiting=(levels[-1],))


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    seg = b - a
    denom = abs(seg) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * np.conjugate(seg)).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * seg))


def _path_distance(p: complex, waypoints) -> float:
    return min(_point_segment_distance(p, a, b)
               for a, b in zip(waypoints, waypoints[1:]))


def n_ep_contour(g0: float, n_ep: int, parity: Parity) -> ComplexPath:
    """Closed clockwise contour from real g0 around the first n_ep EPs.

    The hexagon drops from g0 into the lower half plane, passes beneath
    the deepest enclosed exceptional point, climbs back across the real
    axis on their far left, and returns to g0 at a small positive
    height, so the interior contains exactly the exceptional points of
    the family's levels n_b + 2, ..., n_b + 2 n_ep, each wound once
    clockwise, and none of their mirror images.  (It also winds the
    family's real branch point, whose monodromy is trivial: k and -k
    describe the same state.)  Construction fails if any relevant point
    comes closer to the boundary than ``CLEARANCE``.
    """
    g0 = float(g0)
    check_coupling(g0)
    if not (isinstance(n_ep, numbers.Integral) and n_ep >= 1):
        raise ValueError(f"the contour must enclose at least one exceptional point ({n_ep!r})")

    *enclosed, sentinel = [ep.g_ep for ep in enumerate_eps(
        parity, parity.bound_level + 2 * (n_ep + 1), verify_unique=False)]

    re_lo = min(e.real for e in enclosed)
    re_hi = max(e.real for e in enclosed)
    im_lo = min(e.imag for e in enclosed)
    if g0 < re_hi + CLEARANCE:
        raise PathConstructionError(
            f"base point {g0} is not clear of the enclosed points on the right")
    x_left = re_lo - CLEARANCE
    y_bottom = im_lo - CLEARANCE
    y_top = min(CLEARANCE, 0.45 * min(-e.imag for e in enclosed))
    waypoints = [g0, g0 + 1j * y_bottom, x_left + 1j * y_bottom,
                 x_left + 1j * y_top, g0 + 1j * y_top, g0]

    outside = [sentinel, np.conjugate(sentinel)] + [np.conjugate(e) for e in enclosed]
    for p in list(enclosed) + outside:
        d = _path_distance(complex(p), waypoints)
        if d < CLEARANCE * (1.0 - 1e-9):
            raise PathConstructionError(
                f"exceptional point at {p} lies {d:.3g} from the contour, "
                f"inside the clearance {CLEARANCE}")
    if not (x_left < sentinel.real < g0 and sentinel.imag < y_bottom):
        raise PathConstructionError(
            f"the first excluded point {sentinel} is not safely below the contour")
    return ComplexPath(waypoints)


def ep_chain_path(ns, g0: float = 1.0, radius: float = 0.05) -> ComplexPath:
    """Concatenated clockwise loops around the EPs of the given levels.

    Each loop is based at real g0 and reaches its target through the
    canonical corridor: a shallow channel just below the real axis,
    then a vertical drop to the circle's three o'clock point, with the
    drop passing to the left of every shallower exceptional point.
    This corridor choice makes the loop homotopic, in the punctured
    coupling plane, to the small-circle loop that defines the
    elementary monodromy, so the frame monodromy of the concatenated
    path is exactly the product of the elementary monodromies in path
    order (later loops acting from the left).  A corridor taking the
    wrong side of a shallower point would conjugate its factor by that
    point's monodromy instead.
    """
    if not len(ns):
        raise ValueError("a chain needs at least one level")
    g0 = float(g0)
    if g0 <= 0.0:
        raise PathConstructionError("the chain must be based at positive real coupling")
    points = {n: find_ep(n, verify_unique=False).g_ep for n in ns}
    if 2.0 * CHANNEL_DEPTH > min(-e.imag for e in points.values()):
        raise PathConstructionError("channel depth must sit well above every loop target")
    for n, e in points.items():
        a = e.real + radius
        for m, other in points.items():
            if m == n or -other.imag >= -e.imag:
                continue
            if not (a < other.real - 0.4 * radius):
                raise PathConstructionError(
                    f"drop to the level-{n} point at Re g = {a:.4f} does not "
                    f"clear the level-{m} point at {other}")

    dip = -1j * CHANNEL_DEPTH
    waypoints = [g0]
    for n in ns:
        e = points[n]
        a = e.real + radius
        circle = circle_path(e, radius, n_points=48, clockwise=True)
        waypoints += [g0 + dip, a + dip]
        waypoints += list(circle.waypoints)
        waypoints += [a + dip, g0 + dip, g0]
    return ComplexPath(waypoints)


def chained_loop_holonomy(ns, trunc: TruncationSpec,
                          radius: float = 1e-3) -> HolonomyMatrix:
    """Ordered product of small-circle transports around the given EPs.

    Each circle starts at its point's three o'clock position with the
    standard frame continued straight down from the real axis, so every
    factor converges to its elementary monodromy as the radius shrinks,
    and the product converges to the closed-form chain.  Loops listed
    first act first, i.e. their matrices stand rightmost in the product,
    and the ``monodromy`` is the same product of the loops' own.  A level
    outside the truncation is refused before any transport.
    """
    for n in ns:
        trunc.slot(n)
    out = np.eye(trunc.n_levels, dtype=complex)
    monodromy = out.copy()
    steps = rejected = 0
    for n in ns:
        piece = ep_loop_holonomy(n, trunc, radius).holonomy
        out = piece.matrix @ out
        monodromy = piece.monodromy @ monodromy
        steps += piece.steps
        rejected += piece.rejected
    return HolonomyMatrix(trunc, out, steps=steps, rejected=rejected, monodromy=monodromy)


def permutation_from_holonomy(hol: HolonomyMatrix, *,
                              g0: float | None = None) -> CycleResult:
    """The permutation and phases of a closed path's holonomy, read from
    its signed permutation ``hol.monodromy``.  An open path carries none,
    which is a ValueError."""
    if hol.monodromy is None:
        raise ValueError("the holonomy of an open path carries no permutation")
    trunc = hol.truncation
    levels = trunc.levels
    kbar = trunc.base
    w = hol.monodromy
    rows = np.abs(w).argmax(axis=0)  # one entry in each column
    permutation = {n: levels[i] for n, i in zip(levels, rows.tolist())}
    phases = dict(zip(levels, w[rows, np.arange(len(levels))].tolist()))

    if g0 is not None:
        energies_before = _family_energies(trunc, g0)
        energies_after = {n: energies_before[permutation[n]] for n in levels}
    else:
        g0 = float("nan")
        energies_before = {}
        energies_after = {}
    return CycleResult(g0, trunc, kbar, permutation, phases,
                       energies_before, energies_after, holonomy=hol)


def contour_permutation(path: ComplexPath, trunc: TruncationSpec) -> CycleResult:
    """Continue the truncated family around a closed path and read the
    induced level permutation.

    The holonomy is the frame monodromy: each level's quasi-momentum is
    continued around the loop by Newton tracking and matched back to
    the standard levels at the base point, giving the adiabatic
    permutation and its signs exactly.
    """
    g_start = complex(path.waypoints[0])
    hol = frame_monodromy(path, trunc)  # refuses an open path
    g0 = float(g_start.real) if abs(g_start.imag) < 1e-12 else None
    return permutation_from_holonomy(hol, g0=g0)
