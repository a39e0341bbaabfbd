"""One benchmark child process: set up, say READY, serve rounds, report.

Started by run.py with ``src`` on PYTHONPATH.  Set-up is everything a
fresh process pays before its first request: importing ``lieb2b.cli``
(the import a CLI call pays), loading the check data, generating the
request set and one warm-up request.  The child then prints ``READY``,
and run.py stops its set-up clock on that line.

One client, one thread, closed loop: the next request starts only after
the previous one returned, and the reference kernel of speed.py is
timed between requests at least 10 ms apart.  Each request runs inside
a fresh warnings record, so a numpy ``RuntimeWarning`` that escapes it
is seen.  Its result is checked after its timer stops.

The last line on stdout is a JSON object with the run's figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import warnings
from array import array
from time import perf_counter

import numpy as np

import lieb2b.cli  # noqa: F401  (the import a CLI call pays)
from lieb2b.bethe import SolverError
from lieb2b.config import ConfigError
from lieb2b.exceptional import ExceptionalPointError
from lieb2b.holonomy import TransportError

import speed
import workloads
from tracer import Tracer

TYPED = (SolverError, TransportError, ExceptionalPointError, ConfigError)
FAIL_CLASSES = ("typed", "untyped", "warning", "check")
KERNEL_EVERY_S = 0.01    # least time between two timings of the reference kernel


class Tally:
    """Outcomes of the requests served so far.

    ``rounds[r][i]`` is the latency of request ``i`` of the run's
    request set in round ``r``, and ``reference[r][i]`` the same
    latency at the reference host speed (see speed.py).
    """

    def __init__(self):
        self.attempted = 0
        self.rounds = []
        self.reference = []
        self.fail = dict.fromkeys(FAIL_CLASSES, 0)
        self.wrong = 0           # results returned but rejected by the check
        self.examples = {}       # first reason seen per failure class

    @property
    def failed(self):
        return sum(self.fail.values())

    def record(self, kind, reason):
        self.fail[kind] += 1
        self.examples.setdefault(kind, reason)


def serve_one(workload, req, tally, tracer=None, request_id=-1):
    """Serve and check one request; return its latency in seconds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", RuntimeWarning)
        if tracer is not None:
            tracer.request_id = request_id
            tracer.active = True
        error = result = None
        t0 = perf_counter()
        try:
            result = workload.serve(req)
        except Exception as exc:  # every exception is a counted failure
            error = exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
    tally.attempted += 1
    if error is not None:
        kind = "typed" if isinstance(error, TYPED) else "untyped"
        tally.record(kind, f"{type(error).__name__}: {error}"[:200])
        return t1 - t0
    reason = workload.check(req, result)
    if reason is not None:
        tally.wrong += 1
    escaped = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if escaped:
        tally.record("warning", str(escaped[0].message)[:200])
    elif reason is not None:
        tally.record("check", reason)
    return t1 - t0


def serve_round(workload, reqs, tally, tracer=None, first_id=0):
    """Serve the request set once, timing the reference kernel between requests.

    The kernel runs once ``KERNEL_EVERY_S`` have passed since its last
    run, and after the last request.  Each latency is scaled by the
    kernel timings on either side of it.  Short requests thus share one
    kernel run, rather than each starting with caches it has just cooled.
    """
    raw, reference = array("d"), array("d")
    kernel_before = speed.kernel_seconds()
    since = perf_counter()
    for i, req in enumerate(reqs):
        raw.append(serve_one(workload, req, tally, tracer, first_id + i))
        if perf_counter() - since >= KERNEL_EVERY_S or i == len(reqs) - 1:
            kernel_after = speed.kernel_seconds()
            reference.extend(speed.to_reference(t, kernel_before, kernel_after)
                             for t in raw[len(reference):])
            kernel_before = kernel_after
            since = perf_counter()
    tally.rounds.append(raw)
    tally.reference.append(reference)


def summary(tally):
    """End-to-end figures of a run: each request at its median over the rounds.

    Other tenants of a shared host slow it by up to 2x (on the 2-core
    VM this benchmark was tuned on), in stretches from under a second
    to minutes, and single requests by more.  Each latency is first
    taken at the reference host speed, from the kernel timed just
    before and after it (speed.py); that cancels slow stretches longer
    than a request.  Every round serves the same request set, so each
    request then has one latency per round, and its median over the
    rounds is its typical cost in the run.  ``wall_s`` is the sum of
    those over the set and the percentiles are taken over them.  A
    change that slows any request still shows.  The same figures from
    the latencies as measured are reported beside them as ``raw_*``.
    """
    lat = np.asarray(tally.reference)
    typical = np.median(lat, axis=0)
    raw = np.asarray(tally.rounds)
    raw_typical = np.median(raw, axis=0)
    return {
        "wall_s": float(typical.sum()),
        "request_p50_ms": 1e3 * float(np.percentile(typical, 50)),
        "request_p90_ms": 1e3 * float(np.percentile(typical, 90)),
        "raw_wall_s": float(raw_typical.sum()),
        "raw_request_p50_ms": 1e3 * float(np.percentile(raw_typical, 50)),
        "host_speed": float(np.median(lat / raw)),
        "requests": lat.shape[1],
        "round_s": raw.sum(axis=1).tolist(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "fail": tally.fail,
        "fail_examples": tally.examples,
    }


def measure(workload, reqs, seconds):
    """Untraced rounds until ``seconds`` are used (at least one round)."""
    tally = Tally()
    t_start = perf_counter()
    while True:
        t_round = perf_counter()
        serve_round(workload, reqs, tally)
        now = perf_counter()
        # stop when one more round like the last would overrun the budget
        if (now - t_start) + (now - t_round) > seconds:
            break
    return summary(tally)


def traced(workload, reqs, n_rounds, spans_path):
    """A fixed number of traced rounds, the first also served plainly.

    The round count is fixed per workload, so the counts of two traced
    runs with the same seed repeat exactly.  The round served both ways
    gives the tracing overhead.
    """
    plain = Tally()
    serve_round(workload, reqs, plain)
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        for r in range(n_rounds):
            serve_round(workload, reqs, tally, tracer, r * len(reqs))
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.save(spans_path)
    out = summary(tally)
    out["overhead_ratio"] = sum(tally.rounds[0]) / sum(plain.rounds[0])
    out["wrong"] += plain.wrong
    out["layers"] = tracer.metrics()
    out["spans"] = len(tracer.start)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced spans (.npz)")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workloads.load_golden()
    reqs = workload.request_set(args.seed)
    if args.smoke:
        reqs = reqs[:workload.smoke_size]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        n_rounds = 1 if args.smoke else workload.trace_rounds
        out = traced(workload, reqs, n_rounds, args.spans)
    else:
        out = measure(workload, reqs, 0 if args.smoke else args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
