"""Spans and counters around lieb2b's public functions, installed at runtime.

``Tracer.install`` replaces every module-global binding of each listed
function across the loaded ``lieb2b.*`` modules (the modules import one
another's functions by name, as in ``holonomy.newton_correct``) with a
wrapper, and ``Tracer.uninstall`` puts the originals back.  Nothing in
the package itself is edited.

A timed wrapper records one span (name, start, end, parent span,
request id) per call.  Spans stay in memory and are written out by
``save`` when the run ends.  Self time, a span's duration minus the
time its child spans cover, is summed per function as the spans close.
The residual kernels are called too often to time (tens of thousands of
calls per loop request), so their wrappers only count calls and points.
Wrappers record nothing while ``active`` is false, so checks that run
between requests leave no trace.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

TIMED = {
    "bethe": ("solve_k_real", "newton_polish", "energy"),
    "continuation": ("newton_correct", "continue_along", "continue_to",
                     "sheet_value", "conjugation_symmetry_check", "build_sheet"),
    "exceptional": ("find_ep",),
    "holonomy": ("transport", "advance_frame", "connection_matrix",
                 "frame_monodromy", "ep_loop_holonomy", "entry_frame",
                 "frame_at", "match_frames", "m_n_analytic"),
    "cycles": ("permutation_from_holonomy",),
    "serialize": ("sheet_document", "csv_table", "ExportRecord.render"),
}
KERNEL = ("bethe_residual", "residual_k_derivative", "residual_scale",
          "scaled_bethe_residual")
LAYERS = tuple(TIMED)


def _observe_newton(tracer, result):
    tracer.counts["continuation.newton_correct.converged"] += bool(result[2])


def _observe_continue(tracer, result):
    tracer.counts["continuation.continue_along.aborted"] += result.status.name != "COMPLETED"


def _observe_sheet(tracer, result):
    k = result.k
    tracer.counts["continuation.sheet.cells"] += k.size
    tracer.counts["continuation.sheet.nan_cells"] += int(
        np.count_nonzero(np.isnan(k.real) | np.isnan(k.imag)))
    tracer.counts["continuation.sheet.aborted_columns"] += len(result.aborted_columns)


def _observe_transport(tracer, result):
    tracer.counts["holonomy.transport.steps"] += result.steps
    tracer.counts["holonomy.transport.rejected"] += result.rejected


def _observe_render(tracer, result):
    tracer.counts["serialize.render.bytes"] += len(result.encode("ascii"))


OBSERVERS = {
    "continuation.newton_correct": _observe_newton,
    "continuation.continue_along": _observe_continue,
    "continuation.build_sheet": _observe_sheet,
    "holonomy.transport": _observe_transport,
    "serialize.ExportRecord.render": _observe_render,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.active = False
        self.calls = Counter()
        self.failed = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self._open = []        # indices of the spans now open, innermost last
        self._child_s = []     # time covered by children, parallel to _open
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observe = OBSERVERS.get(qualname)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            self._child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[qualname] += 1
                raise
            finally:
                t1 = perf_counter()
                self.start[idx] = t0
                self.end[idx] = t1
                self._open.pop()
                d = t1 - t0
                self.self_s[qualname] += d - self._child_s.pop()
                self.total_s[qualname] += d
                self.calls[qualname] += 1
                if self._child_s:
                    self._child_s[-1] += d
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(parity, g, k):
            if self.active:
                self.counts["bethe.kernel.calls"] += 1
                self.counts["bethe.kernel.points"] += max(getattr(g, "size", 1),
                                                          getattr(k, "size", 1))
            return fn(parity, g, k)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lieb2b" and not mod_name.startswith("lieb2b."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        for layer, names in TIMED.items():
            module = sys.modules["lieb2b." + layer]
            for name in names:
                qualname = f"{layer}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._timed(qualname, original))
                    self._undo.append((cls, method, original))
                else:
                    original = getattr(module, name)
                    self._rebind(original, self._timed(qualname, original))
        bethe = sys.modules["lieb2b.bethe"]
        for name in KERNEL:
            original = getattr(bethe, name)
            self._rebind(original, self._counted(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, keyed by name, each (value, unit)."""
        c, calls, self_s, total = self.counts, self.calls, self.self_s, self.total_s

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                          if k.startswith(layer + ".")), "s")
        solve = "bethe.solve_k_real"
        out[solve + ".calls"] = (calls[solve], "count")
        out[solve + ".us_per_call"] = (1e6 * ratio(total[solve], calls[solve]), "us")
        out[solve + ".failed"] = (self.failed[solve], "count")
        out["bethe.kernel.calls"] = (c["bethe.kernel.calls"], "count")
        out["bethe.kernel.points"] = (c["bethe.kernel.points"], "count")
        out["bethe.kernel.points_per_call"] = (
            ratio(c["bethe.kernel.points"], c["bethe.kernel.calls"]), "count")
        newton = "continuation.newton_correct"
        out[newton + ".calls"] = (calls[newton], "count")
        out[newton + ".self_s"] = (self_s[newton], "s")
        out[newton + ".converged_ratio"] = (
            ratio(c[newton + ".converged"], calls[newton]), "ratio")
        sheet = "continuation.build_sheet"
        out[sheet + ".self_s"] = (self_s[sheet], "s")
        out["continuation.sheet.cells_per_s"] = (
            ratio(c["continuation.sheet.cells"], total[sheet]), "1/s")
        out["continuation.sheet.nan_cells"] = (c["continuation.sheet.nan_cells"], "count")
        out["continuation.sheet.aborted_columns"] = (
            c["continuation.sheet.aborted_columns"], "count")
        along = "continuation.continue_along"
        out[along + ".calls"] = (calls[along], "count")
        out[along + ".self_s"] = (self_s[along], "s")
        out[along + ".aborted"] = (c[along + ".aborted"], "count")
        ep = "exceptional.find_ep"
        out[ep + ".calls"] = (calls[ep], "count")
        out[ep + ".ms_per_call"] = (1e3 * ratio(total[ep], calls[ep]), "ms")
        out[ep + ".failed"] = (self.failed[ep], "count")
        tr = "holonomy.transport"
        steps, rejected = c[tr + ".steps"], c[tr + ".rejected"]
        out[tr + ".calls"] = (calls[tr], "count")
        out[tr + ".steps"] = (steps, "count")
        out[tr + ".rejected"] = (rejected, "count")
        out[tr + ".accept_ratio"] = (ratio(steps, steps + rejected), "ratio")
        out[tr + ".us_per_step"] = (1e6 * ratio(total[tr], steps), "us")
        for name in ("advance_frame", "connection_matrix"):
            out[f"holonomy.{name}.calls"] = (calls["holonomy." + name], "count")
            out[f"holonomy.{name}.self_s"] = (self_s["holonomy." + name], "s")
        out["holonomy.frame_monodromy.self_s"] = (self_s["holonomy.frame_monodromy"], "s")
        out["serialize.render.bytes"] = (c["serialize.render.bytes"], "B")
        out["serialize.render.mb_per_s"] = (
            1e-6 * ratio(c["serialize.render.bytes"], out["serialize.self_s"][0]), "MB/s")
        return out

    def save(self, path):
        """Write every span as parallel arrays; ``names`` maps name ids."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32),
            request=np.frombuffer(self.request, np.int32))
