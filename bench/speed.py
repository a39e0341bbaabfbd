"""Host speed: fixed reference work, timed beside every measurement.

On a shared host, other tenants slow this process by up to 2x, in
stretches from under a second to several minutes long, and its CPU time
slows with its wall time, so neither clock alone gives a steady figure.
Two references do a fixed amount of work and call nothing in
``lieb2b``, so a change to the library cannot move them:

- the kernel below, for request latencies: interpreted complex
  arithmetic, numpy calls on scalars, maths on 201-point vectors and
  float formatting, the kinds of work the library does;
- ``REFERENCE_PROCESS``, for set-up times: a fresh interpreter that
  imports numpy, then says READY like a benchmark child.  Set-up is
  process start and imports, which a host slows differently from
  computation.

A time measured between two timings of a reference is reported at the
reference speed, where the reference takes ``REF_S`` (the kernel) or
``REF_PROCESS_S`` (the process): ``t * ref_s / mean(before, after)``.
On the 2-vCPU Xeon VM this benchmark was tuned on, the kernel takes 2
to 3 ms and the process 0.20 to 0.23 s, so reference seconds are close
to that host's seconds.
"""

from __future__ import annotations

import cmath
import statistics
import sys
from time import perf_counter

import numpy as np

REF_S = 0.0025    # kernel time at the reference speed
REF_PROCESS_S = 0.2
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy; print('READY', flush=True)"]
_VECTOR = np.linspace(0.0, 4.0, 201) * (1.0 - 0.5j)


def _kernel():
    z = 0.3 + 0.1j
    for _ in range(1500):                   # interpreted complex arithmetic
        z = z * (0.999 + 0.001j) + cmath.sin(z) * 1e-3
    x = np.float64(0.5)
    for _ in range(300):                    # numpy calls on scalars
        x = np.cos(x) * 0.5 + np.abs(np.complex128(x + 1j)) * 0.1
    a = _VECTOR
    for _ in range(30):                     # 201-point vector maths
        a = np.sin(a) * 0.5 + np.exp(-a) * 0.1
    return z, x, ",".join(repr(float(v)) for v in a.real)   # float formatting


def kernel_seconds(repeats=1):
    """Median wall time of ``repeats`` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds, before, after, ref_s=REF_S):
    """``seconds`` measured between two timings of a reference that takes
    ``ref_s`` at the reference speed, at that speed."""
    return seconds * ref_s / (0.5 * (before + after))
