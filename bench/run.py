"""lieb2b benchmark: four seeded closed-loop workloads, end to end or traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several fresh child processes, from start until ready), ``wall_s`` (the
time to serve the run's request set, each request at its median over
the rounds served, see worker.summary), ``request_p50_ms`` (median of
those latencies) and ``peak_rss_mb`` (child ``ru_maxrss``).  The three
times are given at the reference host speed of speed.py, and as
measured beside them (``raw_*``).
``--trace 1`` serves a fixed number of rounds with spans around the
library's public functions, the first round also plainly, and reports
the per-layer metrics,
``import.*`` from ``python -X importtime``, the ``fail.*`` counts and
``trace.overhead_ratio``.
``--smoke`` serves a handful of requests, to check that the benchmark
itself works.  ``--workload all`` prints one table for every workload.

For one workload, the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it give the run record (commit, seed, versions, machine) and
each figure by name and unit, including ``fail_ratio``, its failure
classes and, on ``spectrum`` and ``ladder``, ``request_p90_ms``.  The
full record is also written under ``bench/out/``.

Exits 2 without a result when the checkout has no ``src/lieb2b``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("spectrum", "ladder", "sheets", "loops")
SETUP_SAMPLES = 5          # fresh processes whose set-up time is medianed
IMPORT_SAMPLES = 3         # `-X importtime` runs whose figures are medianed
DEADLINE_S = 175           # the whole invocation, per workload
P90_WORKLOADS = ("spectrum", "ladder")   # >= 100 requests per run
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "request_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"benchmark exceeded {DEADLINE_S} s")


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args):
    """Start worker.py; return (seconds until READY, remaining stdout)."""
    return run_ready([sys.executable, str(BENCH / "worker.py")] + args)


def run_ready(cmd):
    """Run a process that prints READY first; return (seconds until READY,
    remaining stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"process exited with code {code}: {' '.join(cmd)}")
    return ready, rest


def setup_seconds(args, samples):
    """Set-up times of ``samples`` fresh children: (at the reference host
    speed, as measured) for each.

    The reference process of speed.py starts before the first child and
    after each one, and each child's set-up is scaled by the mean of the
    reference times on either side.
    """
    reference = [run_ready(speed.REFERENCE_PROCESS)[0]]
    out = []
    for _ in range(samples):
        ready, _ = run_child(args + ["--setup-only"])
        reference.append(run_ready(speed.REFERENCE_PROCESS)[0])
        out.append((speed.to_reference(ready, *reference[-2:], speed.REF_PROCESS_S),
                    ready))
    return out


def import_seconds():
    """(import.lieb2b_s, import.scipy_s) of `import lieb2b.cli` in a fresh process.

    scipy_s sums the self time of every scipy module; lieb2b_s is the
    rest of the import, numpy included.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lieb2b.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    total_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
        module = name.strip()
        top_level = len(name) - len(name.lstrip()) == 1
        if top_level and module.split(".")[0] == "lieb2b":
            total_us += cumulative_us
        if module.split(".")[0] == "scipy":
            scipy_us += self_us
    return (total_us - scipy_us) * 1e-6, scipy_us * 1e-6


def git_commit():
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload, seed, seconds, trace, smoke):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {"commit": git_commit(), "workload": workload, "seed": seed,
            "seconds": seconds, "traced": bool(trace), "smoke": smoke,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpu": cpu_model()}


def measure(workload, seed, seconds, trace, smoke):
    """One workload; returns (record, result, metrics as name -> (value, unit))."""
    record = run_record(workload, seed, seconds, trace, smoke)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    if trace:
        imports = [import_seconds() for _ in range(1 if smoke else IMPORT_SAMPLES)]
        _, rest = run_child(args + ["--spans", str(stem) + ".spans.npz"])
        result = json.loads(rest.strip().splitlines()[-1])
        metrics = {k: tuple(v) for k, v in result.pop("layers").items()}
        metrics["import.lieb2b_s"] = (statistics.median(i[0] for i in imports), "s")
        metrics["import.scipy_s"] = (statistics.median(i[1] for i in imports), "s")
        for kind, count in result["fail"].items():
            metrics[f"fail.{kind}"] = (count, "count")
        metrics["trace.overhead_ratio"] = (result["overhead_ratio"], "ratio")
    else:
        setups = setup_seconds(args, 1 if smoke else SETUP_SAMPLES)
        _, rest = run_child(args)
        result = json.loads(rest.strip().splitlines()[-1])
        result["setup_s"] = statistics.median(s[0] for s in setups)
        result["raw_setup_s"] = statistics.median(s[1] for s in setups)
        result["setup_samples_s"] = [s[1] for s in setups]
        metrics = {name: (result[name], unit) for name, unit in END_TO_END_UNITS.items()}
    with open(str(stem) + ".json", "w", encoding="ascii") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return record, result, metrics


def print_run(record, result, metrics):
    print("record", json.dumps(record))
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{record['workload']:9} {name:42} {shown} {unit}")
    w = record["workload"]
    if not record["traced"]:
        if w in P90_WORKLOADS:
            print(f"{w:9} {'request_p90_ms':42} {result['request_p90_ms']:>16.6g} ms")
        for name in ("raw_setup_s", "raw_wall_s", "raw_request_p50_ms", "host_speed"):
            unit = name.rsplit("_", 1)[-1] if name.startswith("raw_") else "ratio"
            print(f"{w:9} {name:42} {result[name]:>16.6g} {unit}")
        print(f"{w:9}   setup_s, wall_s and latencies at the reference host speed; "
              f"each of {result['requests']} requests at its median over "
              f"{len(result['round_s'])} rounds; raw_* as measured")
    ratio = result["failed"] / result["attempted"]
    classes = " ".join(f"{k}={v}" for k, v in result["fail"].items())
    print(f"{w:9} {'fail_ratio':42} {ratio:>16.6g} -  "
          f"(requests={result['attempted']} failed={result['failed']}: {classes})")
    for kind, reason in result["fail_examples"].items():
        print(f"{w:9}   first {kind} failure: {reason}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="serve a handful of requests once (self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "lieb2b" / "__init__.py").is_file():
        print(f"no lieb2b sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_alarm)
    runs = []
    for name in names:
        signal.alarm(DEADLINE_S)
        try:
            runs.append(measure(name, args.seed, args.seconds, args.trace, args.smoke))
        except (Deadline, RuntimeError, subprocess.SubprocessError, OSError,
                ValueError) as exc:
            print(f"benchmark failed on {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        print_run(*runs[-1])
    if len(runs) == 1:
        record, result, metrics = runs[0]
        print(json.dumps({
            "correct": result["wrong"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
