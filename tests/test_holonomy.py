"""Gauge connection and parallel transport: closed forms vs oracle vs loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieb2b.bethe import Parity, solve_k_real
from lieb2b.continuation import circle_path, line_path
from lieb2b.eigensystem import overlap_connection_oracle
from lieb2b.exceptional import find_ep
from lieb2b.holonomy import (MIN_LOOP_RADIUS, ConnectionProximityError,
                             TruncationSpec, TruncationWarning,
                             connection_matrix, d_function, d_function_trig,
                             d_sign, ep_loop_holonomy, frame_at,
                             frame_monodromy, gauge_connection,
                             m_chain_analytic, m_n_analytic, match_frames,
                             rotated_sqrt, standard_sqrt_r, transport)

EVEN12 = TruncationSpec(Parity.EVEN, 12)


class TestBranchWindow:
    def test_rotated_window_cuts_along_positive_imaginary_axis(self):
        assert rotated_sqrt(-1.0) == -1j
        assert rotated_sqrt(4.0) == 2.0
        # continuous across the negative real axis ...
        assert abs(rotated_sqrt(-1 + 1e-12j) - rotated_sqrt(-1 - 1e-12j)) < 1e-11
        # ... and cut along the positive imaginary one
        assert abs(rotated_sqrt(-1e-12 + 1j) + rotated_sqrt(1e-12 + 1j)) < 1e-11

    def test_standard_window_per_label(self):
        for r in (-2.0, 3j - 1.0, 0.5 - 2j):
            assert standard_sqrt_r(0, r) == rotated_sqrt(r)
            assert standard_sqrt_r(1, r) == rotated_sqrt(r)
            assert standard_sqrt_r(2, r) == np.sqrt(complex(r))


class TestConnectionForms:
    def test_rational_and_trig_forms_agree_on_axis(self):
        rng = np.random.default_rng(20240817)
        for parity in (Parity.EVEN, Parity.ODD):
            for n in range(parity.bound_level, parity.bound_level + 8, 2):
                for g in rng.uniform(-4.0, 4.0, size=25):
                    if n == 0 and g < 0.05:
                        continue  # bound window uses the rotated root
                    if n == 1 and g < -2.0 / np.pi + 0.05:
                        continue
                    k = solve_k_real(n, float(g)).k
                    a = d_function(n, g, k)
                    b = d_function_trig(n, g, k)
                    assert abs(a - b) < 1e-10

    def test_sign_convention(self):
        assert [d_sign(n) for n in range(6)] == [1, 1, -1, -1, 1, 1]

    def test_matches_quadrature_oracle(self):
        for parity in (Parity.EVEN, Parity.ODD):
            trunc = TruncationSpec(parity, 8)
            for g in (0.5, 1.0, 2.0, -0.5):
                closed = gauge_connection(g, trunc)
                oracle = overlap_connection_oracle(8, g, parity=parity)
                assert np.max(np.abs(closed - oracle)) < 1e-6

    def test_diagonal_is_exactly_zero(self):
        a = gauge_connection(1.1, EVEN12)
        assert np.all(np.diag(a) == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(min_value=0.1, max_value=5.0),
           odd=st.booleans())
    def test_hermitian_and_antisymmetric_at_real_coupling(self, g, odd):
        trunc = TruncationSpec(Parity.ODD if odd else Parity.EVEN, 6)
        a = gauge_connection(g, trunc)
        assert np.max(np.abs(a - a.conj().T)) < 1e-12
        assert np.max(np.abs(a + a.T)) < 1e-12

    def test_proximity_error_names_the_pair(self):
        levels = (0, 2)
        with pytest.raises(ConnectionProximityError) as err:
            connection_matrix(levels, [1.0, 1.0], [1.0, 1.0 + 1e-9])
        assert "0" in str(err.value) and "2" in str(err.value)

    def test_complex_coupling_needs_sheet_values(self):
        with pytest.raises(ValueError):
            gauge_connection(1.0 - 0.5j, EVEN12)


class TestTransport:
    def test_real_axis_transport_is_orthogonal(self):
        v = transport(line_path(0.5, 2.5), TruncationSpec(Parity.EVEN, 8)).matrix
        assert np.max(np.abs(v.imag)) < 1e-7
        assert np.max(np.abs(v @ v.T - np.eye(8))) < 1e-7

    def test_determinant_stays_unimodular(self):
        v = transport(line_path(0.5, 2.5), TruncationSpec(Parity.ODD, 8)).matrix
        assert abs(abs(np.linalg.det(v)) - 1.0) < 1e-6

    def test_closed_loop_off_the_singularities_is_identity(self):
        loop = circle_path(1.5, 0.5, n_points=64)
        v = transport(loop, TruncationSpec(Parity.EVEN, 8)).matrix
        assert np.max(np.abs(v - np.eye(8))) < 1e-8

    def test_retraced_path_cancels(self):
        there = line_path(1.0, 1.0 - 0.8j)
        v = transport(there.joined_with(there.reversed()), EVEN12).matrix
        assert np.max(np.abs(v - np.eye(12))) < 1e-8

    def test_small_truncation_warns_about_tail(self):
        e = find_ep(2, verify_unique=False).g_ep
        loop = circle_path(e, 1e-3, n_points=48)
        with pytest.warns(TruncationWarning):
            transport(loop, TruncationSpec(Parity.EVEN, 2))


class TestEpLoops:
    def test_first_collision_block(self):
        res = ep_loop_holonomy(2, EVEN12, 1e-3)
        v = res.holonomy
        assert abs(v.entry(2, 0) - 1.0) < 1e-2
        assert abs(v.entry(0, 2) + 1.0) < 1e-2
        assert abs(v.entry(0, 0)) < 1e-2
        assert abs(v.entry(2, 2)) < 1e-2
        for n in EVEN12.levels[2:]:
            assert abs(v.entry(n, n) - 1.0) < 1e-2

    def test_higher_collision_signs(self):
        v4 = ep_loop_holonomy(4, EVEN12, 1e-3).holonomy
        assert abs(v4.entry(0, 4) - 1.0) < 1e-2
        assert abs(v4.entry(4, 0) + 1.0) < 1e-2
        v6 = ep_loop_holonomy(6, EVEN12, 1e-3).holonomy
        assert abs(v6.entry(0, 6) + 1.0) < 1e-2
        assert abs(v6.entry(6, 0) - 1.0) < 1e-2

    def test_defect_shrinks_with_radius(self):
        coarse = ep_loop_holonomy(2, EVEN12, 1e-3)
        fine = ep_loop_holonomy(2, EVEN12, 1e-4)
        assert fine.defect < coarse.defect
        assert np.max(np.abs(fine.holonomy.matrix
                             - coarse.holonomy.matrix)) < 1e-2

    def test_truncation_convergence(self):
        v12 = ep_loop_holonomy(2, EVEN12, 1e-3).holonomy.matrix
        v16 = ep_loop_holonomy(2, TruncationSpec(Parity.EVEN, 16),
                               1e-3).holonomy.matrix
        assert np.max(np.abs(v16[:12, :12] - v12)) < 1e-3

    def test_monodromy_squared_flips_the_pair(self):
        v = ep_loop_holonomy(2, EVEN12, 1e-3).holonomy.matrix
        w = v @ v
        assert abs(w[0, 0] + 1.0) < 2e-2
        assert abs(w[1, 1] + 1.0) < 2e-2
        assert abs(w[0, 1]) < 2e-2 and abs(w[1, 0]) < 2e-2

    def test_radius_floor_is_enforced(self):
        with pytest.raises(ValueError):
            ep_loop_holonomy(2, EVEN12, MIN_LOOP_RADIUS / 2)

    def test_odd_family_loop(self):
        odd12 = TruncationSpec(Parity.ODD, 12)
        v = ep_loop_holonomy(3, odd12, 1e-3).holonomy
        assert abs(v.entry(3, 1) - 1.0) < 1e-2
        assert abs(v.entry(1, 3) + 1.0) < 1e-2


class TestFrameMonodromy:
    def test_equals_analytic_monodromy_exactly(self):
        for n, parity in ((2, Parity.EVEN), (4, Parity.EVEN), (3, Parity.ODD)):
            trunc = TruncationSpec(parity, 12)
            e = find_ep(n, verify_unique=False).g_ep
            loop = circle_path(e, 1e-3, n_points=48)
            w = frame_monodromy(loop, trunc).matrix
            assert np.array_equal(w, m_n_analytic(n, trunc).matrix)

    def test_real_branch_point_loop_is_trivial(self):
        for parity in (Parity.EVEN, Parity.ODD):
            trunc = TruncationSpec(parity, 10)
            loop = circle_path(parity.real_branch_point, 0.3, n_points=64)
            w = frame_monodromy(loop, trunc).matrix
            assert np.array_equal(w, np.eye(10))

    def test_open_path_is_rejected(self):
        with pytest.raises(ValueError):
            frame_monodromy(line_path(1.0, 2.0), EVEN12)

    def test_frame_matching_identity(self):
        frame = frame_at(EVEN12, 1.2)
        perm, factors = match_frames(frame, frame_at(EVEN12, 1.2))
        assert list(perm) == list(range(12))
        assert all(f == 1.0 for f in factors)


class TestChainClosedForm:
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_chain_equals_ordered_product(self, parity):
        trunc = TruncationSpec(parity, 12)
        for m in range(1, 6):
            explicit = np.eye(12)
            for i in range(1, m + 1):
                explicit = m_n_analytic(parity.bound_level + 2 * i,
                                        trunc).matrix @ explicit
            chained = m_chain_analytic(m, trunc).matrix
            assert np.array_equal(chained, explicit)

    def test_chain_ground_slot_sign(self):
        for m in (1, 2, 3, 4, 5):
            w = m_chain_analytic(m, EVEN12)
            assert w.entry(0, 2 * m) == (-1.0) ** m
