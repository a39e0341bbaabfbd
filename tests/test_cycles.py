"""Closed spectral journeys: Hermitian sweeps and exceptional-point contours."""

from types import SimpleNamespace

import numpy as np
import pytest

from lieb2b import bethe, cli, cycles
from lieb2b.bethe import Parity, SolverError, energy, solve_k_real
from lieb2b.continuation import line_path
from lieb2b.cycles import (PathConstructionError, chained_loop_holonomy,
                           contour_permutation, ep_chain_path,
                           hermitian_cycle, n_ep_contour,
                           permutation_from_holonomy)
from lieb2b.holonomy import (HolonomyMatrix, TruncationSpec, frame_monodromy,
                             m_chain_analytic, m_n_analytic, transport)

EVEN8 = TruncationSpec(Parity.EVEN, 8)
EVEN12 = TruncationSpec(Parity.EVEN, 12)


class TestHermitianCycle:
    def test_shift_by_two(self):
        res = hermitian_cycle(1.0, EVEN8)
        assert res.permutation == {n: n + 2 for n in EVEN8.levels}
        assert res.exiting == (14,)
        assert all(p == 1.0 for p in res.phases.values())

    def test_energies_transfer_to_higher_level(self):
        res = hermitian_cycle(1.0, EVEN8)
        for n in EVEN8.levels:
            expected = energy(0, solve_k_real(n + 2, 1.0)).energy.real
            assert res.energies_after[n] == pytest.approx(expected, rel=1e-12)

    def test_odd_family(self):
        res = hermitian_cycle(1.0, TruncationSpec(Parity.ODD, 6))
        assert res.permutation == {n: n + 2 for n in (1, 3, 5, 7, 9, 11)}
        assert res.kbar == 1

    def test_rejects_base_point_on_branch_point(self):
        with pytest.raises(ValueError):
            hermitian_cycle(0.0, EVEN8)
        with pytest.raises(ValueError):
            hermitian_cycle(-2.0 / np.pi, TruncationSpec(Parity.ODD, 4))

    def test_unsolved_root_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(bethe, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(SolverError):
            hermitian_cycle(0.7, TruncationSpec(Parity.ODD, 4))

    def test_levels_that_do_not_meet_raise_solver_error(self, monkeypatch, capsys):
        # k_n(+proxy) pushed off k_{n+2}(-proxy): a typed error, which the
        # CLI reports with exit code 2 rather than a traceback
        solve = cycles.real_axis_k
        monkeypatch.setattr(cycles, "real_axis_k",
                            lambda n, g: solve(n, g) + np.array([[0.1], [0.0], [0.0]]))
        with pytest.raises(SolverError, match="do not meet"):
            hermitian_cycle(1.0, EVEN8)
        assert cli.main(["cycle", "--contour", "hermitian", "--trunc", "4"]) == 2
        assert "do not meet" in capsys.readouterr().err


class TestContours:
    def test_single_point_contour_swaps_pair(self):
        res = contour_permutation(n_ep_contour(4.0, 1, Parity.EVEN), EVEN12)
        assert res.permutation[0] == 2
        assert res.permutation[2] == 0
        assert res.phases[0] == 1.0
        assert res.phases[2] == -1.0
        assert all(res.permutation[n] == n for n in EVEN12.levels[2:])

    def test_contour_monodromy_is_exactly_the_chain(self):
        for n_ep in (1, 2, 3):
            res = contour_permutation(n_ep_contour(4.0, n_ep, Parity.EVEN),
                                      EVEN12)
            target = m_chain_analytic(n_ep, EVEN12).matrix
            assert np.array_equal(res.holonomy.matrix, target)

    def test_contour_emulates_hermitian_shift_on_low_levels(self):
        res = contour_permutation(n_ep_contour(4.0, 3, Parity.EVEN), EVEN12)
        herm = hermitian_cycle(4.0, EVEN12)
        for n in (0, 2, 4):
            assert res.permutation[n] == herm.permutation[n]
            assert res.energies_after[n] == pytest.approx(
                herm.energies_after[n], rel=1e-12)

    def test_returning_level_carries_alternating_phase(self):
        for m in (1, 2, 3):
            res = contour_permutation(n_ep_contour(4.0, m, Parity.EVEN),
                                      EVEN12)
            back = m * 2
            assert res.permutation[back] == 0
            assert res.phases[back] == (-1.0) ** m

    def test_contour_must_enclose_a_point(self):
        # a contour around no point would report the identity by
        # construction; the empty loop is `lieb2b holonomy --contour empty`.
        # A count that is not an integer (1.5 was a TypeError) is refused too
        for n_ep in (0, -1, 1.5, 1.0):
            with pytest.raises(ValueError, match="at least one exceptional point"):
                n_ep_contour(4.0, n_ep, Parity.EVEN)

    def test_odd_family_contour(self):
        trunc = TruncationSpec(Parity.ODD, 10)
        res = contour_permutation(n_ep_contour(4.0, 2, Parity.ODD), trunc)
        assert res.permutation[1] == 3
        assert res.permutation[3] == 5
        assert res.permutation[5] == 1

    def test_open_path_is_rejected(self):
        with pytest.raises(ValueError):
            contour_permutation(line_path(4.0, 5.0), EVEN8)

    def test_clearance_violations_are_loud(self):
        with pytest.raises(PathConstructionError):
            n_ep_contour(-0.8, 1, Parity.EVEN)  # base point too close


class TestChainedLoops:
    def test_product_of_transports_matches_closed_form(self):
        v = chained_loop_holonomy((2, 4), EVEN12, 1e-3)
        target = m_chain_analytic(2, EVEN12).matrix
        assert np.max(np.abs(v.matrix - target)) < 2e-2
        assert np.array_equal(v.monodromy, target)

    def test_steps_and_rejected_steps_are_summed(self, monkeypatch):
        def piece(n, trunc, radius):
            hol = HolonomyMatrix(trunc, np.eye(trunc.n_levels), steps=10 + n, rejected=n,
                                 monodromy=np.eye(trunc.n_levels))
            return SimpleNamespace(holonomy=hol)

        monkeypatch.setattr(cycles, "ep_loop_holonomy", piece)
        v = chained_loop_holonomy((2, 4), EVEN12, 1e-3)
        assert (v.steps, v.rejected) == (26, 6)

    def test_order_matters(self):
        m2 = m_n_analytic(2, EVEN12).matrix
        m4 = m_n_analytic(4, EVEN12).matrix
        v = chained_loop_holonomy((4, 2), EVEN12, 1e-3)
        assert np.max(np.abs(v.matrix - m2 @ m4)) < 2e-2
        assert np.max(np.abs(m2 @ m4 - m4 @ m2)) == 1.0

    def test_chain_path_monodromy_is_exact(self):
        w = frame_monodromy(ep_chain_path((2, 4), 4.0), EVEN12).matrix
        m2 = m_n_analytic(2, EVEN12).matrix
        m4 = m_n_analytic(4, EVEN12).matrix
        assert np.array_equal(w, m4 @ m2)

    def test_chain_path_equals_sweep_contour(self):
        w_chain = frame_monodromy(ep_chain_path((2, 4, 6), 4.0), EVEN12).matrix
        w_sweep = contour_permutation(n_ep_contour(4.0, 3, Parity.EVEN),
                                      EVEN12).holonomy.matrix
        assert np.array_equal(w_chain, w_sweep)

    def test_drop_must_clear_shallower_points(self):
        with pytest.raises(PathConstructionError):
            ep_chain_path((2, 4), 4.0, radius=0.3)

    def test_chain_needs_a_level(self):
        # was min() of an empty sequence
        with pytest.raises(ValueError, match="a chain needs at least one level"):
            ep_chain_path([])


class TestPermutationReader:
    def test_clean_matrix_reads_back(self):
        # the permutation and phases come from the signed permutation,
        # not from the transport matrix beside it
        trunc = TruncationSpec(Parity.EVEN, 3)
        w = np.array([[0.0, -1.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0]], dtype=complex)
        res = permutation_from_holonomy(
            HolonomyMatrix(trunc, np.full((3, 3), 0.5 + 0.0j), monodromy=w), g0=1.0)
        assert res.permutation == {0: 2, 2: 0, 4: 4}
        assert res.phases == {0: 1.0, 2: -1.0, 4: 1.0}
        assert res.energies_before[0] == res.energies_after[2]

    def test_open_path_holonomy_is_refused(self):
        hol = transport(line_path(1.0, 1.0 - 0.05j), TruncationSpec(Parity.EVEN, 4))
        assert hol.monodromy is None
        with pytest.raises(ValueError, match="open path carries no permutation"):
            permutation_from_holonomy(hol)
