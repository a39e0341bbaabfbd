"""One coupling domain, |Re g|, |Im g| <= COUPLING_LIMIT, with one home.

`bethe.COUPLING_LIMIT` is the only place the bound is written, and the
library's entry points refuse a coupling outside the box with a
ValueError before any numerical work, so no numpy warning escapes.  The
edge itself, which stands in for infinite coupling, still answers.
"""

import ast
import warnings

import numpy as np
import pytest

from test_private_imports import PACKAGE

from lieb2b import cycles
from lieb2b.bethe import (COUPLING_LIMIT, Parity, real_axis_k,
                          scaled_bethe_residual, solve_k_real)
from lieb2b.config import ConfigError, RunConfig
from lieb2b.continuation import (ComplexPath, GridSpec, build_sheet, circle_path,
                                 continue_to, line_path, sheet_value)
from lieb2b.cycles import hermitian_cycle
from lieb2b.eigensystem import overlap_connection_oracle
from lieb2b.holonomy import (TruncationSpec, advance_frame, entry_frame, frame_at,
                             frame_monodromy, transport)

EVEN4 = TruncationSpec(Parity.EVEN, 4)


def test_only_bethe_writes_the_coupling_bound():
    writers = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and type(node.value) in (int, float)
               and node.value == COUPLING_LIMIT}
    assert writers == {"bethe.py"}


def test_the_cycle_has_no_proxy_of_its_own():
    assert not hasattr(cycles, "PROXY_INFINITY")


OUTSIDE = {
    "real_axis_k": lambda: real_axis_k(2, 1e7),
    "real_axis_k, one point of many": lambda: real_axis_k([0, 2], [-1e6, -1.5e6]),
    "solve_k_real": lambda: solve_k_real(0, -1e155),
    "frame_at": lambda: frame_at(EVEN4, 1e7),
    "entry_frame": lambda: entry_frame(EVEN4, 1.0 - 2e6j),
    "advance_frame": lambda: advance_frame(frame_at(EVEN4, 1.0), 1.0 - 2e6j),
    "hermitian_cycle": lambda: hermitian_cycle(1e7, EVEN4),
    "oracle": lambda: overlap_connection_oracle(4, 1e7),
    "ComplexPath": lambda: ComplexPath([1.0, 1.0 - 1e300j]),
    "circle_path": lambda: circle_path(-1e7, 1e-3),
    "sheet_value": lambda: sheet_value(2, -1.0 - 2e6j),
    "continue_to": lambda: continue_to(solve_k_real(2, 1.0), 1.0 - 2e6j),
    "transport": lambda: transport(line_path(1.0, 2e6), EVEN4),
    "frame_monodromy": lambda: frame_monodromy(circle_path(2e6, 1.0), EVEN4),
    "GridSpec": lambda: GridSpec(-3.0, 1.0, -2e6, 0.5, 3, 3),
    "build_sheet": lambda: build_sheet(0, GridSpec(-1e300, 1.0, -1.0, 0.5, 3, 3)),
}


@pytest.mark.parametrize("call", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_entry_point_refuses_a_coupling_outside_the_domain(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coupling domain"):
            call()


@pytest.mark.parametrize("call", [lambda: real_axis_k(0, np.nan),
                                  lambda: ComplexPath([1.0, complex(np.inf, 0.0)])])
def test_non_finite_coupling_is_refused(call):
    with pytest.raises(ValueError, match="not a finite coupling"):
        call()


def test_real_axis_answers_at_the_edge():
    n = np.arange(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = real_axis_k(n[:, None], [COUPLING_LIMIT, -COUPLING_LIMIT])
    assert np.all(np.isfinite(k))
    for parity in Parity:
        for g, row in zip((COUPLING_LIMIT, -COUPLING_LIMIT), k[n % 2 == parity.value].T):
            assert all(scaled_bethe_residual(parity, g, kk) <= 1e-10 for kk in row)
    assert np.max(np.abs(k[:, 0] - (n + 1))) < 1e-5
    assert np.max(np.abs(k[2:, 1] - (n[2:] - 1))) < 1e-5
    assert abs(k[0, 1] + 1j * COUPLING_LIMIT) < 1.0  # the bound level, k ~ i g


def test_paths_and_windows_reach_the_corners():
    corners = [complex(x, y) for x in (-COUPLING_LIMIT, COUPLING_LIMIT)
               for y in (-COUPLING_LIMIT, COUPLING_LIMIT)]
    assert ComplexPath(corners).waypoints == corners
    GridSpec(-COUPLING_LIMIT, COUPLING_LIMIT, -COUPLING_LIMIT, COUPLING_LIMIT, 2, 2)


def test_run_config_reads_the_same_bound():
    RunConfig(grid_re_min=-COUPLING_LIMIT, grid_im_max=COUPLING_LIMIT)
    with pytest.raises(ConfigError, match="coupling domain"):
        RunConfig(grid_re_min=np.nextafter(-COUPLING_LIMIT, -np.inf))
