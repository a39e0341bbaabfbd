"""The gated benchmark workloads pass their own checks on the library.

A benchmark run counts a request whose ``check`` returns a reason as
``outputs_incorrect``.  This serves the first request of seed 1 of each
gated workload in-process, the first seed-1 ``sheets`` request on the
survey window, and every seed-1 request of ``loops``, one label each,
in two rounds, through the functions of bench/workloads.py that the
benchmark worker calls, so a library change that would fail such a
check fails here first.
"""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    module.load_golden()
    return module


@pytest.mark.parametrize("name", ["ladder", "sheets", "loops"])
def test_first_request_passes_its_check(workloads, name):
    workload = workloads.WORKLOADS[name]
    request = workload.request_set(1)[0]
    assert workload.check(request, workload.serve(request)) is None


def test_first_survey_sheet_request_passes_its_check(workloads):
    # the first sheets request is a deep strip, whose halves differ in
    # depth and which has no zero row; the survey window has both
    workload = workloads.WORKLOADS["sheets"]
    request = next(r for r in workload.request_set(1) if r[1] == workloads.GridSpec(
        n_re=workloads.SHEET_POINTS, n_im=workloads.SHEET_POINTS))
    assert workload.check(request, workload.serve(request)) is None


def test_every_seed_one_loops_request_passes_its_check(workloads):
    # a frame-walk change can break one label's loop and leave another's;
    # served twice in a row, as the worker's rounds serve the set, a
    # remembered entry frame that went stale or was written to fails
    # the second round, which must repeat the first bit for bit
    workload = workloads.WORKLOADS["loops"]
    rounds = []
    for _ in range(2):
        results = []
        for request in workload.request_set(1):
            result = workload.serve(request)
            assert workload.check(request, result) is None, request
            loop, frames, _ = result
            results.append((loop.holonomy.matrix.tobytes(), frames.matrix.tobytes()))
        rounds.append(results)
    assert rounds[1] == rounds[0]
