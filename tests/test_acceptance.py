"""Acceptance scorecard: the library's headline numerical claims.

One test per criterion, each printing a single pass/fail line with the
measured figure next to its tolerance, so a full run doubles as a
verification report.
"""

import numpy as np
import pytest

from lieb2b.bethe import Parity, solve_k_real
from lieb2b.continuation import circle_path, continue_to
from lieb2b.cycles import (chained_loop_holonomy, contour_permutation,
                           hermitian_cycle, n_ep_contour)
from lieb2b.eigensystem import overlap_connection_oracle
from lieb2b.exceptional import enumerate_eps, find_ep, sqrt_coefficient
from lieb2b.holonomy import (TruncationSpec, d_function, d_function_trig,
                             ep_loop_holonomy, gauge_connection,
                             m_chain_analytic, m_n_analytic, transport)

TWO_OVER_PI = 2.0 / np.pi
EVEN8 = TruncationSpec(Parity.EVEN, 8)
EVEN12 = TruncationSpec(Parity.EVEN, 12)


@pytest.fixture
def scorecard(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def report(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        if reporter is None:
            print(line)
        else:
            reporter.write_line(line)
        assert ok, line

    return report


def test_criterion_1_real_axis_spectrum_limits(scorecard):
    free_exact = all(solve_k_real(n, 0.0).k == complex(n) for n in range(2, 9))
    drift = max(max(abs(solve_k_real(n, 1e6).k - (n + 1)),
                    abs(solve_k_real(n, -1e6).k - (n - 1)))
                for n in range(2, 9))
    scorecard(1, free_exact and drift < 1e-3,
              f"free values exact, strong-coupling drift {drift:.1e} < 1e-3")


def test_criterion_2_bound_branch_momentum(scorecard):
    k = solve_k_real(0, -10.0).k
    rel = abs(k.imag + 10.0) / 10.0
    ok = rel < 0.1 and abs(k.real) < 1e-8
    scorecard(2, ok, f"Im k = {k.imag:.4f} (relative error {rel:.1e} < 0.1), "
                     f"|Re k| = {abs(k.real):.1e} < 1e-8")


def test_criterion_3_exceptional_point_catalog(scorecard):
    even = enumerate_eps(Parity.EVEN, 8)
    odd = enumerate_eps(Parity.ODD, 9)
    labels_ok = ([e.n for e in even] == [2, 4, 6, 8]
                 and [e.n for e in odd] == [3, 5, 7, 9])
    worst = max(e.max_residual() for e in even + odd)
    half_plane_ok = (all(e.g_ep.real < 0.0 for e in even)
                     and all(e.g_ep.real < -TWO_OVER_PI for e in odd))
    drift = {e.n: abs(e.g_ep + 1j * (e.n - 1)) / (e.n - 1) for e in even}
    ok = (labels_ok and half_plane_ok and worst < 1e-10
          and drift[4] > drift[6] > drift[8])
    scorecard(3, ok, f"8 points located, max residual {worst:.1e} < 1e-10, "
                     f"drift from -i(n-1) decreasing")


def test_criterion_4_square_root_topology(scorecard):
    eps = enumerate_eps(Parity.EVEN, 8) + enumerate_eps(Parity.ODD, 9)
    worst = max(abs(sqrt_coefficient(e) - TWO_OVER_PI) for e in eps)
    # independent exponent: continue both branches to shrinking offsets
    ep = find_ep(2, verify_unique=False)
    sizes = (1e-3, 3e-4, 1e-4)
    gaps = []
    for s in sizes:
        target = ep.g_ep + s
        k0 = continue_to(solve_k_real(0, target.real), target).k
        k2 = continue_to(solve_k_real(2, target.real), target).k
        gaps.append(abs(k2 - k0))
    alpha = float(np.polyfit(np.log(sizes), np.log(gaps), 1)[0])
    ok = worst < 1e-6 and abs(alpha - 0.5) < 5e-3
    scorecard(4, ok, f"|G2 - 2/pi| <= {worst:.1e} < 1e-6, "
                     f"measured gap exponent {alpha:.4f} = 0.500 +- 0.005")


def test_criterion_5_single_loop_monodromy(scorecard):
    details = []
    ok = True
    for n in (2, 4, 6):
        v = ep_loop_holonomy(n, EVEN12, 1e-3).holonomy.matrix
        diff = float(np.max(np.abs(v - m_n_analytic(n, EVEN12).matrix)))
        ok = ok and diff < 1e-2
        details.append(f"n={n}: {diff:.1e}")
    scorecard(5, ok, "loop transport vs exchange matrix within 1e-2, "
                     + ", ".join(details))


def test_criterion_6_chained_loops_compose_in_order(scorecard):
    v = chained_loop_holonomy((2, 4), EVEN12, 1e-3)
    target = m_n_analytic(4, EVEN12).matrix @ m_n_analytic(2, EVEN12).matrix
    diff = float(np.max(np.abs(v.matrix - target)))
    exact = True
    for trunc in (EVEN12, TruncationSpec(Parity.ODD, 12)):
        for m in range(1, 6):
            prod = np.eye(len(trunc.levels), dtype=complex)
            for i in range(1, m + 1):
                prod = m_n_analytic(trunc.base + 2 * i, trunc).matrix @ prod
            exact = exact and np.array_equal(
                m_chain_analytic(m, trunc).matrix, prod)
    ok = diff < 2e-2 and exact
    scorecard(6, ok, f"transported chain vs M(4)M(2): {diff:.1e} < 2e-2; "
                     f"closed form equals ordered product for m = 1..5")


def test_criterion_7_connection_closed_form(scorecard):
    worst = 0.0
    for parity in (Parity.EVEN, Parity.ODD):
        trunc = TruncationSpec(parity, 8)
        for g in (0.5, 1.0, 2.0, -0.5):
            closed = gauge_connection(g, trunc)
            oracle = overlap_connection_oracle(8, g, parity=parity)
            worst = max(worst, float(np.max(np.abs(closed - oracle))))
    rng = np.random.default_rng(11)
    worst_d = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(0, 10))
        g = float(rng.uniform(-4.0, 4.0))
        if n == 0 and g < 0.05:
            continue
        if n == 1 and g < -TWO_OVER_PI + 0.05:
            continue
        k = solve_k_real(n, g).k
        worst_d = max(worst_d, abs(d_function(n, g, k) - d_function_trig(n, g, k)))
        count += 1
    ok = worst < 1e-6 and worst_d < 1e-10
    scorecard(7, ok, f"quadrature oracle gap {worst:.1e} < 1e-6; "
                     f"rational vs trig coefficients {worst_d:.1e} < 1e-10")


def test_criterion_8_spectral_flow_permutations(scorecard):
    herm = hermitian_cycle(1.0, EVEN8)
    shift_ok = herm.permutation == {n: n + 2 for n in EVEN8.levels}
    swept = contour_permutation(n_ep_contour(4.0, 3, Parity.EVEN), EVEN12)
    herm12 = hermitian_cycle(4.0, EVEN12)
    match_ok = all(swept.permutation[n] == herm12.permutation[n]
                   for n in (0, 2, 4))
    v = chained_loop_holonomy((2, 4, 6), EVEN12, 1e-3)
    ph = v.matrix[EVEN12.slot(0), EVEN12.slot(6)]
    angle = float(abs(np.angle(-ph)))
    ok = shift_ok and match_ok and angle < 2e-2
    scorecard(8, ok, "relabeling cycle shifts n -> n+2 exactly; three-point "
                     "contour matches it on n <= 4; ground-slot phase off "
                     f"(-1)^3 by {angle:.1e} < 2e-2 in argument")


def test_criterion_9_loop_class_dichotomy(scorecard):
    v = transport(circle_path(1.5, 0.5, n_points=64), EVEN8).matrix
    trivial = float(np.max(np.abs(v - np.eye(8))))
    m = ep_loop_holonomy(2, EVEN12, 1e-3).holonomy.matrix
    v2 = m @ m
    sq = max(abs(v2[EVEN12.slot(0), EVEN12.slot(0)] + 1.0),
             abs(v2[EVEN12.slot(2), EVEN12.slot(2)] + 1.0))
    ok = trivial < 1e-8 and sq < 2e-2
    scorecard(9, ok, f"loop off the branch points: identity to {trivial:.1e} "
                     f"< 1e-8; squared monodromy is -1 within {sq:.1e} < 2e-2")
