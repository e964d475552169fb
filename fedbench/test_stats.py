"""Tests for the benchmark's helpers: python3 -m unittest discover fedbench"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([7], 50), 7)

    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)

    def test_refuses_a_tail_without_ten_samples_beyond(self):
        with self.assertRaises(stats.PercentileError):
            stats.percentile(list(range(99)), 90)
        stats.percentile(list(range(100)), 90)
        with self.assertRaises(stats.PercentileError):
            stats.percentile([], 50)

    def test_tail_percentile_is_the_highest_allowed(self):
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(84), 88.0)
        self.assertIsNone(stats.tail_percentile(20))
        self.assertIsNone(stats.tail_percentile(0))
        for n in range(21, 3000):
            pct = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, pct), 10, n)
            stats.percentile(list(range(n)), pct)  # must not refuse
            self.assertLess(stats.samples_beyond(n, pct + 0.2), 10, n)

    def test_latency_summary_reports_tail_and_count(self):
        summary = stats.latency_summary("x_ms", [float(v) for v in range(200)])
        self.assertEqual(summary["x_ms"], 99.5)
        self.assertEqual(summary["x_ms.tail_pct"], 95.0)
        self.assertAlmostEqual(summary["x_ms.tail"], 189.05)
        self.assertEqual(summary["x_ms.n"], 200)
        few = stats.latency_summary("y_ms", [1.0, 2.0, 3.0])
        self.assertEqual(few["y_ms.tail"], 2.0)
        self.assertEqual(few["y_ms.tail_pct"], 50.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5]), 3.0 / 3.0)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


def one_round(**overrides):
    """Recorder columns for round 0 (eval only) and one training round."""
    columns = {
        "end_out": [0.100, 0.200], "end_in": [0.099, 0.190],
        "start_in": [-1, 0.110], "start_out": [-1, 0.111],
        "post_in": [-1, 0.150], "post_out": [-1, 0.152],
        "agg_in": [-1, 0.160], "agg_out": [-1, 0.161],
        "late_hook_s": [0.0, 0.0], "eval_s": [0.09, 0.020],
        "checkpoint_s": [0.0, 0.005], "hook_s": [0.0, 0.004],
        "sampling_s": [0.0, 0.009], "solve_wall_s": [0.0, 0.038],
        "aggregate_s": [0.0, 0.007], "round_s": [0.09, 0.089],
    }
    for key, value in overrides.items():
        columns[key][1] = value
    return columns


class LayerAccountingTest(unittest.TestCase):
    def test_phases_plus_unattributed_equal_wall(self):
        c = one_round()
        p = stats.round_layers(c, 1)
        self.assertAlmostEqual(p["wall"], 0.100)
        self.assertAlmostEqual(p["sampling"], 0.010)
        self.assertAlmostEqual(p["parallel_for"], 0.039)
        self.assertAlmostEqual(p["aggregate"], 0.008)
        self.assertAlmostEqual(p["unattributed"],
                               0.100 - (0.010 + 0.039 + 0.008 + 0.020 +
                                        0.005 + 0.004))
        named = sum(v for k, v in p.items() if k != "wall")
        self.assertAlmostEqual(named, p["wall"])
        self.assertEqual(stats.layer_violations(c, 1, p), [])

    def test_late_fault_hooks_leave_the_aggregate_phase(self):
        p = stats.round_layers(one_round(late_hook_s=0.003), 1)
        self.assertAlmostEqual(p["aggregate"], 0.005)

    def test_round_without_results_uses_on_aggregate(self):
        p = stats.round_layers(one_round(post_in=-1, post_out=-1), 1)
        self.assertAlmostEqual(p["parallel_for"], 0.160 - 0.111)
        self.assertAlmostEqual(p["aggregate"], 0.0)

    def test_overlapping_phases_are_reported(self):
        c = one_round(eval_s=0.080)
        p = stats.round_layers(c, 1)
        self.assertLess(p["unattributed"], 0)
        problems = stats.layer_violations(c, 1, p)
        self.assertTrue(any("exceed wall" in m for m in problems), problems)

    def test_a_gap_shorter_than_the_programs_own_phase_is_reported(self):
        c = one_round(solve_wall_s=0.045)
        problems = stats.layer_violations(c, 1, stats.round_layers(c, 1))
        self.assertTrue(any("parallel_for" in m for m in problems), problems)
        c = one_round(round_s=0.095)
        problems = stats.layer_violations(c, 1, stats.round_layers(c, 1))
        self.assertTrue(any("round stopwatch" in m for m in problems), problems)


class ResultLineTest(unittest.TestCase):
    UNITS = {"run_s": "s", "wire_bytes_per_round": "bytes"}

    def test_exact_keys_and_units(self):
        line = stats.result_line(True, 4, 0,
                                 {"run_s": 1.25, "wire_bytes_per_round": 99400},
                                 self.UNITS)
        self.assertNotIn("\n", line)
        parsed = json.loads(line)
        self.assertEqual(list(parsed), ["correct", "attempted", "failed",
                                        "metrics"])
        self.assertEqual(parsed["metrics"]["run_s"], {"value": 1.25,
                                                      "unit": "s"})
        self.assertEqual(parsed["metrics"]["wire_bytes_per_round"]["value"],
                         99400.0)
        self.assertIs(parsed["correct"], True)
        self.assertEqual((parsed["attempted"], parsed["failed"]), (4, 0))

    def test_full_precision_is_kept(self):
        value = 2.3456789012345678
        parsed = json.loads(stats.result_line(True, 1, 0, {"run_s": value},
                                              self.UNITS))
        self.assertEqual(parsed["metrics"]["run_s"]["value"], value)

    def test_refuses_bad_metrics(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"run_s": math.nan}, self.UNITS)
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"nope": 1.0}, self.UNITS)
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, {"run_s": 1.0}, self.UNITS)


if __name__ == "__main__":
    unittest.main()
