"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

A smoke run of every workload, untraced and traced, must print every
metric that BENCHMARK.json names, with its unit.  Each workload's check
must pass a genuine result and reject the same result perturbed: k
shifted by 1e-6, one matrix entry with its sign flipped, one corrupted
export cell.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from lieb2b.continuation import GridSpec  # noqa: E402


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


class SmokeRuns(unittest.TestCase):
    def run_smoke(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_metric_on_every_workload(self):
        spec = benchmark_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in workloads.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    res = self.run_smoke(w, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)


class ChecksReject(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workloads.load_golden()

    def assert_rejects(self, w, req, result, perturbed):
        self.assertIsNone(w.check(req, result))
        self.assertIsNotNone(w.check(req, perturbed))

    def test_spectrum_k_shift(self):
        w = workloads.WORKLOADS["spectrum"]
        for req in ((3, 2.5), (0, -4.0), (7, -3e5)):
            state, level = w.serve(req)
            shifted = dataclasses.replace(state, k=state.k + 1e-6)
            self.assert_rejects(w, req, (state, level), (shifted, level))

    def test_ladder_k_shift(self):
        w = workloads.WORKLOADS["ladder"]
        for n in (4, 17):
            ep = w.serve(n)
            self.assert_rejects(w, n, ep, dataclasses.replace(ep, k_ep=ep.k_ep + 1e-6))

    def test_loops_flipped_sign(self):
        w = workloads.WORKLOADS["loops"]
        req = (3, 12)
        loop, frames, perm = w.serve(req)
        flipped = frames.matrix.copy()
        flipped[0, 1] = -flipped[0, 1]
        bad = dataclasses.replace(frames, matrix=flipped)
        self.assert_rejects(w, req, (loop, frames, perm), (loop, bad, perm))

    def test_sheets_corrupted_cell(self):
        w = workloads.WORKLOADS["sheets"]
        req = (2, GridSpec(n_re=41, n_im=41), (-1.0 - 2.0j,))
        sheet, text, signs = w.serve(req)
        head, last = text.rstrip("\n").rsplit("\n", 1)
        cells = last.split(",")
        cells[2] = repr(math.nextafter(float(cells[2]), math.inf))
        self.assertNotEqual(last, ",".join(cells))
        corrupted = head + "\n" + ",".join(cells) + "\n"
        self.assert_rejects(w, req, (sheet, text, signs), (sheet, corrupted, signs))


if __name__ == "__main__":
    unittest.main()
