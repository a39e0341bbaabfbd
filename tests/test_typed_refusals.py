"""Bad arguments to the library's small entry points are refused with a
ValueError that names the input, before any numerical work, so neither
a bare TypeError nor a numpy warning nor a silent wrong answer escapes.
Integer arguments follow `numbers.Integral`, so numpy integers pass.
A walk that would start on its own branch point is a SolverError.
"""

import warnings

import numpy as np
import pytest

from lieb2b.bethe import (Parity, SolverError, asymptotic_quasimomentum, real_axis_k,
                          solve_k_real)
from lieb2b.continuation import conjugation_symmetry_check, sheet_value
from lieb2b.eigensystem import biorthonormality_defect, overlap_connection_oracle
from lieb2b.exceptional import circle_reaches_branch_point, find_ep, local_expansion

REFUSED = {
    "oracle, fractional n_levels": (lambda: overlap_connection_oracle(2.5, 0.5), "n_levels"),
    "oracle, fractional nodes": (lambda: overlap_connection_oracle(4, 0.5, nodes=10.5),
                                 "nodes"),
    "oracle, no nodes": (lambda: overlap_connection_oracle(4, 0.5, nodes=0), "nodes"),
    "pairing, no levels": (lambda: biorthonormality_defect((), 0.5), "level"),
    "limit, fractional label": (lambda: asymptotic_quasimomentum(2.5, +1), "label n"),
    "limit, negative label": (lambda: asymptotic_quasimomentum(-1, +1), "label n"),
    "expansion, infinite offset": (lambda: local_expansion(find_ep(2), np.inf), "epsilon"),
    "expansion, NaN offset": (lambda: local_expansion(find_ep(2), np.nan), "epsilon"),
    "circle, NaN centre": (lambda: circle_reaches_branch_point(Parity.EVEN, np.nan, 0.1),
                           "finite coupling"),
    "circle, negative radius": (lambda: circle_reaches_branch_point(Parity.EVEN, 1.0, -1.0),
                                "radius"),
    "circle, infinite radius": (
        lambda: circle_reaches_branch_point(Parity.EVEN, 1.0, np.inf), "radius"),
    # 1e300 passed the integer test, then numpy warned in the cast; past
    # 2**53 doubles no longer hold every integer
    "real axis, huge label": (lambda: real_axis_k(1e300, 1.0), "label n"),
    "real axis, label past 2**53": (lambda: real_axis_k(2.0 ** 53 + 2, 1.0), "label n"),
    "real axis, label past int64": (lambda: real_axis_k(10 ** 20, 1.0), "label n"),
    "real solve, huge label": (lambda: solve_k_real(1e300, 1.0), "label n"),
    "sheet value, huge label": (lambda: sheet_value(1e300, 1.0 - 1.0j), "label n"),
    "mirror check, huge label": (lambda: conjugation_symmetry_check(1e300, 1.0 - 1.0j),
                                 "label n"),
}


@pytest.mark.parametrize("call, names", REFUSED.values(), ids=REFUSED.keys())
def test_bad_input_is_a_value_error_naming_it(call, names):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=names):
            call()


def test_numpy_integers_pass():
    assert asymptotic_quasimomentum(np.int64(4), +1) == 5
    a = overlap_connection_oracle(np.int64(2), 0.5, nodes=np.int64(64))
    assert a.shape == (2, 2)


# the bound label's real-axis anchor at its family's real branch point is
# k = 0, the point where its two roots meet; k = 0 also solves the odd
# residual at every g, so a walk that left it would carry 0 along
ON_OWN_BRANCH_POINT = {
    "even, below": (0, -1.0j), "even, above": (0, 1.0j),
    "odd, below": (1, -2.0 / np.pi - 1.0j), "odd, above": (1, -2.0 / np.pi + 1.0j),
}


@pytest.mark.parametrize("n, g", ON_OWN_BRANCH_POINT.values(), ids=ON_OWN_BRANCH_POINT.keys())
def test_walk_from_its_own_branch_point_is_a_solver_error(n, g):
    for call in (sheet_value, conjugation_symmetry_check):
        with pytest.raises(SolverError, match="starts on a branch point"):
            call(n, g)
