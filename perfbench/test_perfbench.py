#!/usr/bin/env python3
"""Tests of the benchmark's own generators and statistics.

    python3 perfbench/test_perfbench.py        # from the root of a checkout

Builds `.bench_build/` first if needed (same build as perfbench/run.py).
"""

import itertools
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = (1, 2, 3, 7, 42)


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(99)), 0.9)
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(19)), 0.5)
        self.assertEqual(run.min_samples(0.9), 100)
        self.assertEqual(run.min_samples(0.5), 20)

    def test_interpolates_sorted_samples(self):
        self.assertAlmostEqual(run.percentile(list(range(100, 0, -1)), 0.9),
                               90.1)
        self.assertAlmostEqual(run.percentile(list(range(1, 21)), 0.5), 10.5)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class SpanTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        spans = [["apply", 0.0, 10.0, -1, 0], ["decide", 1.0, 7.0, 0, 0],
                 ["status", 10.0, 12.0, -1, 0]]
        self.assertEqual(run.self_times(spans), [4.0, 6.0, 2.0])


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_daemon_stream_is_a_valid_scenario_for_its_fleet(self):
        for seed in SEEDS:
            path = run.write_event_stream(
                seed, 5000, os.path.join(run.OUT, "test-stream-%d.txt" % seed))
            r = run.harness("validate", "--stream", path,
                            "--boards", run.DAEMON_BOARDS)
            self.assertTrue(r["valid"], (seed, r.get("error")))
            self.assertEqual(r["events"], 5000)

    def test_daemon_stream_repeats_per_seed_and_reads_status(self):
        a = list(itertools.islice(run.daemon_stream(5), 2000))
        b = list(itertools.islice(run.daemon_stream(5), 2000))
        self.assertEqual(a, b)
        self.assertNotEqual(a, list(itertools.islice(run.daemon_stream(6),
                                                     2000)))
        self.assertEqual(a.count("status"), 2000 // run.STATUS_EVERY)
        faults = [c for c in a if c.split()[0] in ("fail", "throttle",
                                                    "recover")]
        self.assertTrue(0 < len(faults) < len(a) // 10)

    def test_serve_warm_scenarios_are_valid(self):
        for seed in SEEDS:
            r = run.harness("scenario", "--workload", "serve-warm",
                            "--seed", seed)
            self.assertTrue(r["valid"], (seed, r.get("error")))
            self.assertLessEqual(r["peak_concurrency"], 5)
            self.assertEqual(r["slo_arrivals"], 0)

    def test_serve_slo_recur_visits_at_most_eight_mixes(self):
        for seed in SEEDS:
            r = run.harness("scenario", "--workload", "serve-slo-recur",
                            "--seed", seed)
            self.assertTrue(r["valid"], (seed, r.get("error")))
            self.assertLessEqual(r["distinct_mixes"], 8)
            self.assertEqual(r["slo_arrivals"], r["arrivals"])


if __name__ == "__main__":
    unittest.main()
