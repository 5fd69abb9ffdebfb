#!/usr/bin/env python3
"""Tests for the end-to-end sizing benchmark.

Run from anywhere:  python3 perfbench/test_perfbench.py
The end-to-end cases build the probe and make three table1_opamp2 runs and
one transfer_opamp2 run (about two minutes).
"""

import json
import math
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(workload, trace, seed=1, env=None):
    """Run run.py once; returns (returncode, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env if env is not None else clean_env(), timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), \
        proc.stderr


def clean_env():
    return {k: v for k, v in os.environ.items()
            if k not in run.FORBIDDEN_ENV}


class IterationSplit(unittest.TestCase):
    def test_stl_split_and_empty_calls(self):
        # DOE of 8, then iterations of batch 4: one plain, one STL split
        # 1+3, one STL split 0+4 (an empty call first).
        r = {"n_init": 8, "batch": 4, "calls": [
            [0, 10, 8, 0],
            [30, 31, 4, 0],
            [50, 51, 1, 0], [52, 53, 3, 0],
            [80, 80, 0, 0], [90, 91, 4, 0],
        ]}
        self.assertEqual(run.iteration_gaps(r), [20, 19, 37])
        self.assertEqual(run.setup_ns(r), 10)

    def test_times_scale_by_speed_probe(self):
        # The same work on a machine running at full, half and full speed.
        def fake(wall_ns, probe_ns):
            return {"n_init": 8, "batch": 4, "pass": 0, "wall_ns": wall_ns,
                    "speed_probe_ns": probe_ns, "peak_rss_kb": 1024,
                    "calls": [[0, wall_ns // 4, 8, 0],
                              [wall_ns // 2, wall_ns, 4, 0]],
                    "source_calls": []}
        ref = int(run.PROBE_REF_NS)
        m = run.end_to_end([fake(2 * 10**9, ref), fake(4 * 10**9, 2 * ref),
                            fake(2 * 10**9, ref)])
        self.assertAlmostEqual(m["wall_s"][0], 2.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.5)
        self.assertAlmostEqual(m["propose_ms_p50"][0], 500.0)

    def test_trace_overhead_pairs_same_pass_and_seed(self):
        runs = [{"pass": p, "seed": s, "wall_ns": 100 * (p + 1) + s}
                for p in range(3) for s in (5, 6)]
        traced = [{"pass": p, "seed": 5, "wall_ns": 110 * (p + 1) + 5.5}
                  for p in range(3)]
        self.assertAlmostEqual(run.trace_overhead(runs, traced), 1.1)

    def test_hist_quantile_matches_bucket_rule(self):
        buckets = {100: 1, 200: 98, 400: 1}
        self.assertEqual(run.hist_quantile(buckets, 0.5), 200)
        self.assertEqual(run.hist_quantile(buckets, 0.99), 200)
        self.assertEqual(run.hist_quantile(buckets, 1.0), 400)


class EnvHygiene(unittest.TestCase):
    def test_refuses_forbidden_variables(self):
        for var in ("KATO_TRACE", "KATO_FAULT"):
            env = dict(clean_env(), **{var: "x"})
            code, result, err = bench("table1_opamp2", 0, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
            self.assertIn(var, err)


class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.e2e = bench("table1_opamp2", 0)
        cls.layers = bench("table1_opamp2", 1)
        cls.layers_again = bench("table1_opamp2", 1)
        cls.transfer = bench("transfer_opamp2", 1)

    def assert_metrics(self, outcome, spec):
        code, result, err = outcome
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in spec}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], want[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_metric_printed_finite_with_unit(self):
        self.assert_metrics(self.e2e, SPEC["end_to_end"])
        self.assert_metrics(self.layers, SPEC["per_layer"])
        self.assert_metrics(self.transfer, SPEC["per_layer"])

    def test_timings_are_real_work(self):
        metrics = self.e2e[1]["metrics"]
        for m in SPEC["end_to_end"]:
            if m["unit"] in ("s", "ms"):
                seconds = metrics[m["name"]]["value"] * (
                    1e-3 if m["unit"] == "ms" else 1.0)
                self.assertGreater(seconds, 0.01, m["name"])

    def test_counts_repeat_exactly(self):
        first = self.layers[1]["metrics"]
        again = self.layers_again[1]["metrics"]
        self.assertTrue(COUNT_METRICS)
        for name in COUNT_METRICS:
            self.assertEqual(first[name]["value"], again[name]["value"], name)

    def test_traced_run_is_attributed(self):
        for _, result, _ in (self.layers, self.transfer):
            self.assertGreaterEqual(
                result["metrics"]["layer.coverage"]["value"], 0.95)


if __name__ == "__main__":
    unittest.main()
