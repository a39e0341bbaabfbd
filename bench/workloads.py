"""The four benchmark workloads: seeded inputs, one request kind each, checks.

Every workload has a fixed request set per run: a list of distinct
inputs drawn from ``numpy.random.default_rng([seed])``, so a seed fixes
every input and its order.  A run serves the set in rounds, the same
list each round, and counts each request at its median latency.  The
set holds the same kinds of work for every seed; the seed picks values
within them and the order.  ``serve`` is the timed
request: it calls only the public functions of ``lieb2b`` that the
workload is about, looked up on their modules at call time so that a
traced run can wrap them.  ``check`` runs after the timer stops and
returns ``None`` for a correct result or a one-line reason.

The checks use their own overflow-safe residual (``scaled_residual``)
rather than the library's, so a defect in the library's residual kernel
cannot hide itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lieb2b import bethe, continuation, cycles, exceptional, holonomy, serialize
from lieb2b.bethe import Parity
from lieb2b.config import RunConfig
from lieb2b.continuation import GridSpec
from lieb2b.holonomy import TruncationSpec

TWO_OVER_PI = 2.0 / math.pi
CONFIG = RunConfig()
CONFIG_HASH = CONFIG.config_hash()
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "ep_golden.json"


def scaled_residual(even, g, k):
    """|Bethe residual| / its evaluation-error scale, safe for any Im k.

    sin and cos of h = pi k / 2 are both multiplied by exp(-|Im h|),
    which leaves the quotient unchanged and keeps every term finite at
    deep bound momenta.  The scale's floor of 1 becomes exp(-|Im h|).
    """
    g = np.asarray(g, dtype=complex)
    k = np.asarray(k, dtype=complex)
    h = 0.5 * np.pi * k
    x, y = h.real, h.imag
    damp = np.exp(-2.0 * np.abs(y))
    cosh_r = 0.5 * (1.0 + damp)
    sinh_r = 0.5 * np.copysign(1.0 - damp, y)
    sin_r = np.sin(x) * cosh_r + 1j * np.cos(x) * sinh_r
    cos_r = np.cos(x) * cosh_r - 1j * np.sin(x) * sinh_r
    sh, ch = np.abs(sin_r), np.abs(cos_r)
    ak, ag, ah = np.abs(k), np.abs(g), np.abs(h)
    if even:
        num = np.abs(k * sin_r - g * cos_r)
        scale = ak * sh + ag * ch + ah * (ak * ch + ag * sh)
    else:
        num = np.abs(k * cos_r + g * sin_r)
        scale = ak * ch + ag * sh + ah * (ak * sh + ag * ch)
    return num / np.maximum(scale, np.exp(-np.abs(y)))


def cli_ep_finder(m):
    """The branch-point lookup that ``lieb2b sheet`` hands to build_sheet."""
    return exceptional.find_ep(m, verify_unique=False).g_ep


@dataclass(frozen=True)
class Workload:
    smoke_size: int         # requests a smoke run serves, once
    trace_rounds: int       # rounds of the request set a traced run serves
    request_set: Callable   # seed -> list of distinct inputs
    serve: Callable         # inputs -> result (timed)
    check: Callable         # (inputs, result) -> None or reason
    warmup: Callable        # () -> None, run once during set-up


# ---------------------------------------------------------------------------
# spectrum: the work of `lieb2b solve`
# ---------------------------------------------------------------------------

def spectrum_set(seed):
    """1000 requests: n uniform in 0..40, g = +-10**u with u uniform in [-3, 6]."""
    rng = np.random.default_rng([seed])
    size = 1000
    ns = rng.integers(0, 41, size)
    mags = 10.0 ** rng.uniform(-3.0, 6.0, size)
    signs = rng.choice((-1.0, 1.0), size)
    return [(int(n), float(s * m)) for n, s, m in zip(ns, signs, mags)]


def spectrum_serve(req):
    n, g = req
    state = bethe.solve_k_real(n, g, tol=CONFIG.solver_tol)
    return state, bethe.energy(state.parity.bound_level, state)


def spectrum_check(req, result):
    n, g = req
    state, level = result
    k = complex(state.k)
    if state.n != n or level.n != n:
        return "wrong branch label"
    res = float(scaled_residual(n % 2 == 0, g, k))
    if not res <= 1e-10:
        return f"scaled residual {res:.3e}"
    bound = (n == 0 and g < 0) or (n == 1 and g < -TWO_OVER_PI)
    if bound:
        if not (k.real == 0.0 and k.imag < 0.0):
            return f"bound k = {k} off the negative imaginary axis"
    else:
        if not (k.imag == 0.0 and n - 1 <= k.real <= n + 1):
            return f"k = {k} outside [n-1, n+1]"
        if abs(g) >= 1e5:
            limit = n + 1 if g > 0 else n - 1
            if abs(k.real - limit) > 1e-3:
                return f"k = {k.real} not within 1e-3 of {limit}"
    kbar = state.parity.bound_level
    if level.energy != 0.5 * (kbar * kbar + k * k):
        return "energy does not match k"
    return None


def spectrum_warmup():
    for n in range(4):
        for g in (-2.0, 1.0):
            spectrum_serve((n, g))


# ---------------------------------------------------------------------------
# ladder: `find_ep` at library defaults
# ---------------------------------------------------------------------------

_GOLDEN = {}


def load_golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        for e in json.load(fh):
            _GOLDEN[e["n"]] = (complex(e["g_re"], e["g_im"]), complex(e["k_re"], e["k_im"]))


def ladder_set(seed):
    """Every label 2..200 once, in seeded order."""
    return [int(n) for n in np.random.default_rng([seed]).permutation(np.arange(2, 201))]


def ladder_serve(n):
    return exceptional.find_ep(n)


def ladder_check(n, ep):
    g, k = complex(ep.g_ep), complex(ep.k_ep)
    if ep.n != n or ep.n_b != n % 2:
        return "wrong labels"
    res = float(scaled_residual(n % 2 == 0, g, k))
    r = abs(k * k + g * g + 2.0 * g / math.pi)
    if not (res <= 1e-10 and r <= 1e-10):
        return f"joint residuals {res:.3e}, {r:.3e}"
    g2 = -(g * g + k * k) / g
    if not abs(g2 - TWO_OVER_PI) <= 1e-6:
        return f"G2 = {g2}"
    limit = 0.0 if n % 2 == 0 else -TWO_OVER_PI
    if not (g.imag < 0.0 and k.real >= 0.0 and g.real < limit):
        return f"half-plane rule broken at g = {g}, k = {k}"
    if n in _GOLDEN:
        g_ref, k_ref = _GOLDEN[n]
        if abs(g - g_ref) > 1e-10 or abs(k - k_ref) > 1e-10:
            return "differs from the golden table"
    return None


def ladder_warmup():
    exceptional.find_ep(2)


# ---------------------------------------------------------------------------
# sheets: `lieb2b sheet` at 201 x 201, export, mirror symmetry
# ---------------------------------------------------------------------------

SHEET_POINTS = 201
SHEET_COLUMNS = ("g_re", "g_im", "k_re", "k_im")
DEEP_RE = (-600.0, -30.0)   # range of the deep strips' left edge
LABELS = 8


def sheets_set(seed):
    """16 requests in seeded order: each label 0..7 on the survey window
    and on one deep-bound strip.

    The deep strips' left edges are stratified: [-600, -30] is cut into
    eight equal strata and label n's strip starts at a uniform point of
    stratum (-n mod 8), so every seed covers the whole range and each
    label meets the same stretch of it.  The cost of a n = 0, 1 build
    jumps about tenfold below Re g ~ -460 (every cell NaN), so a free
    draw would make the set's cost depend on the seed.
    """
    rng = np.random.default_rng([seed])
    survey = GridSpec(n_re=SHEET_POINTS, n_im=SHEET_POINTS)
    width = (DEEP_RE[1] - DEEP_RE[0]) / LABELS
    out = []
    for n in range(LABELS):
        out.append((n, survey, _window_points(rng, survey)))
        re_min = DEEP_RE[0] + width * ((-n % LABELS) + float(rng.uniform()))
        deep = GridSpec(re_min, re_min + 10.0, -1.0, 0.5, SHEET_POINTS, SHEET_POINTS)
        out.append((n, deep, _window_points(rng, deep)))
    return [out[i] for i in rng.permutation(len(out))]


def _window_points(rng, grid):
    """Four points of the grid's window for the mirror-symmetry check."""
    return tuple(complex(rng.uniform(grid.re_min, grid.re_max),
                         rng.uniform(grid.im_min, grid.im_max)) for _ in range(4))


def sheet_export(sheet):
    """The export of `lieb2b sheet`: one row per cell, then the record."""
    rows = []
    for i, y in enumerate(sheet.im_axis):
        for j, x in enumerate(sheet.re_axis):
            k = sheet.k[i, j]
            rows.append((float(x), float(y), float(k.real), float(k.imag)))
    payload = serialize.sheet_document(sheet.cut_segments, SHEET_COLUMNS, rows)
    return serialize.ExportRecord("sheet", CONFIG_HASH, payload).render()


def sheets_serve(req):
    n, grid, points = req
    sheet = continuation.build_sheet(n, grid, tol=CONFIG.solver_tol,
                                     ep_finder=cli_ep_finder)
    text = sheet_export(sheet)
    signs = [continuation.conjugation_symmetry_check(n, g) for g in points]
    return sheet, text, signs


def sheets_check(req, result):
    n, grid, _ = req
    sheet, text, signs = result
    k = sheet.k
    if k.shape != (grid.n_im, grid.n_re):
        return f"sheet shape {k.shape}"
    nan = np.isnan(k.real) | np.isnan(k.imag)
    stray = set(np.flatnonzero(nan.any(axis=0)).tolist()) - set(sheet.aborted_columns)
    if stray:
        return f"{len(stray)} columns with NaN cells not in aborted_columns"
    g = sheet.re_axis[None, :] + 1j * sheet.im_axis[:, None]
    res = scaled_residual(n % 2 == 0, g[~nan], k[~nan])
    if res.size and not float(res.max()) <= 1e-9:
        return f"worst finite-cell scaled residual {float(res.max()):.3e}"
    record = serialize.parse_record(text)
    if record.command != "sheet" or record.config_hash != CONFIG_HASH:
        return "export header mismatch"
    lines = record.payload.split("\n")
    n_cuts = len(sheet.cut_segments)
    if lines[n_cuts] != ",".join(SHEET_COLUMNS) or lines[-1] != "":
        return "export table layout"
    body = np.array(",".join(lines[n_cuts + 1:-1]).split(","), dtype=float)
    if body.size != 4 * k.size:
        return "export row count"
    body = body.reshape(k.shape + (4,))
    expect = np.stack(np.broadcast_arrays(sheet.re_axis[None, :], sheet.im_axis[:, None],
                                          k.real, k.imag), axis=-1)
    if not np.array_equal(body, expect, equal_nan=True):
        return "export does not re-parse to the sheet"
    if any(s not in (1, -1) for s in signs):
        return f"mirror signs {signs}"
    return None


def sheets_warmup():
    small = GridSpec(n_re=21, n_im=21)
    sheet = continuation.build_sheet(2, small, tol=CONFIG.solver_tol,
                                     ep_finder=cli_ep_finder)
    sheet_export(sheet)
    continuation.conjugation_symmetry_check(2, -1.0 - 1.0j)


# ---------------------------------------------------------------------------
# loops: transport around one exceptional point, frame monodromy, permutation
# ---------------------------------------------------------------------------

LOOP_RADIUS = 1e-3
LOOP_ARC_POINTS = 48


def loops_set(seed):
    """Every label n in 2..9 once, in seeded order: even n at truncation
    12, odd n at 24.

    The assignment is fixed because a loop's cost depends on n (at the
    seed 0.38-0.58 s at truncation 12 and 0.63-0.97 s at 24), so a
    seeded one would make the set's cost depend on the seed.
    """
    order = np.random.default_rng([seed]).permutation(np.arange(2, 10))
    return [(int(n), 12 if n % 2 == 0 else 24) for n in order]


def loops_serve(req):
    n, n_levels = req
    trunc = TruncationSpec(Parity.of_level(n), n_levels)
    loop = holonomy.ep_loop_holonomy(n, trunc, LOOP_RADIUS,
                                     rtol=CONFIG.transport_rtol,
                                     arc_points=LOOP_ARC_POINTS)
    circle = continuation.circle_path(loop.ep.g_ep, LOOP_RADIUS,
                                      n_points=LOOP_ARC_POINTS, clockwise=True)
    frames = holonomy.frame_monodromy(circle, trunc)
    perm = cycles.permutation_from_holonomy(loop.holonomy)
    return loop, frames, perm


def loops_check(req, result):
    n, n_levels = req
    loop, frames, perm = result
    trunc = TruncationSpec(Parity.of_level(n), n_levels)
    ideal = holonomy.m_n_analytic(n, trunc).matrix
    defect = float(np.max(np.abs(loop.holonomy.matrix - ideal)))
    if not defect < 1e-2:
        return f"transport defect {defect:.3e}"
    diff = float(np.max(np.abs(frames.matrix - ideal)))
    if not diff <= 1e-8:
        return f"frame monodromy off M(n) by {diff:.3e}"
    base = trunc.base
    want = {m: m for m in trunc.levels}
    want[n], want[base] = base, n
    if perm.permutation != want:
        return f"permutation {perm.permutation}"
    return None


def loops_warmup():
    trunc = TruncationSpec(Parity.EVEN, 4)
    holonomy.transport(continuation.line_path(1.0, 1.0 - 0.05j), trunc,
                       rtol=CONFIG.transport_rtol)
    circle = continuation.circle_path(1.0 - 0.5j, 0.05, n_points=8)
    holonomy.frame_monodromy(circle, trunc)


WORKLOADS = {
    "spectrum": Workload(20, 80, spectrum_set,
                         spectrum_serve, spectrum_check, spectrum_warmup),
    "ladder": Workload(4, 5, ladder_set,
                       ladder_serve, ladder_check, ladder_warmup),
    "sheets": Workload(2, 1, sheets_set,
                       sheets_serve, sheets_check, sheets_warmup),
    "loops": Workload(2, 1, loops_set,
                      loops_serve, loops_check, loops_warmup),
}
