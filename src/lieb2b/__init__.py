"""Quasi-momentum branches of two bosons on a ring with contact coupling.

The interacting levels k_n(g) of the relative problem are branches of
one analytic function of the coupling.  This package solves them on the
real axis, continues them across the complex coupling plane, locates
the square-root branch points where pairs of levels collide, and
transports eigenstates along coupling contours: the gauge connection in
closed form, parallel-transport holonomy matrices, and the level
permutations induced by closed cycles, including the Hermitian sweep
through infinite coupling.  A quadrature-based overlap oracle provides
an independent numerical check of the closed-form connection.
"""

from .bethe import (BetheState, BranchCutWarning, EnergyLevel, Parity,
                    SolverError, asymptotic_quasimomentum, bethe_residual,
                    energy, j_function, newton_polish,
                    residual_k_derivative, scaled_bethe_residual,
                    solve_k_real)
from .config import ConfigError, RunConfig, load_config, parse_config
from .continuation import (ComplexPath, CutSegment, GridSpec, RiemannSheet,
                           build_sheet, circle_path,
                           conjugation_symmetry_check, continue_along,
                           continue_to, line_path, newton_correct,
                           newton_correct_array, sheet_value)
from .cycles import (EP_PROXIMITY_G, CycleResult, InconclusivePermutationError,
                     PathConstructionError, chained_loop_holonomy,
                     contour_permutation, ep_chain_path, hermitian_cycle,
                     n_ep_contour, permutation_from_holonomy)
from .eigensystem import (Eigenfunction, Side, biorthonormality_defect,
                          normalization_pt, overlap_connection_oracle,
                          pair_overlap, sinc_pi)
from .exceptional import (ExceptionalPoint, ExceptionalPointError,
                          branch_point_function, enumerate_eps,
                          ep_residual, find_ep, local_expansion,
                          sqrt_coefficient, sqrt_lower_cut)
from .holonomy import (MIN_LOOP_RADIUS, ConnectionProximityError,
                       EpLoopHolonomy, HolonomyMatrix, TransportError,
                       TransportFrame, TruncationSpec, TruncationWarning,
                       advance_frame, connection_matrix, d_function,
                       d_function_trig, d_sign, entry_frame, ep_loop_holonomy,
                       frame_at, frame_monodromy, gauge_connection,
                       m_chain_analytic, m_n_analytic, match_frames,
                       transport)

__version__ = "0.1.0"

__all__ = [
    "BetheState", "BranchCutWarning", "EnergyLevel", "Parity", "SolverError",
    "asymptotic_quasimomentum", "bethe_residual", "energy", "j_function",
    "newton_polish", "residual_k_derivative", "scaled_bethe_residual",
    "solve_k_real",
    "ConfigError", "RunConfig", "load_config", "parse_config",
    "ComplexPath", "CutSegment", "GridSpec", "RiemannSheet", "build_sheet",
    "circle_path", "conjugation_symmetry_check", "continue_along",
    "continue_to", "line_path", "newton_correct", "newton_correct_array",
    "sheet_value",
    "EP_PROXIMITY_G", "CycleResult", "InconclusivePermutationError",
    "PathConstructionError", "chained_loop_holonomy", "contour_permutation",
    "ep_chain_path", "hermitian_cycle", "n_ep_contour",
    "permutation_from_holonomy",
    "Eigenfunction", "Side", "biorthonormality_defect", "normalization_pt",
    "overlap_connection_oracle", "pair_overlap", "sinc_pi",
    "ExceptionalPoint", "ExceptionalPointError", "branch_point_function",
    "enumerate_eps", "ep_residual", "find_ep",
    "local_expansion", "sqrt_coefficient", "sqrt_lower_cut",
    "MIN_LOOP_RADIUS", "ConnectionProximityError", "EpLoopHolonomy",
    "HolonomyMatrix", "TransportError", "TransportFrame", "TruncationSpec",
    "TruncationWarning", "advance_frame", "connection_matrix", "d_function",
    "d_function_trig", "d_sign", "entry_frame", "ep_loop_holonomy",
    "frame_at", "frame_monodromy", "gauge_connection", "m_chain_analytic",
    "m_n_analytic", "match_frames", "transport",
]
