#!/usr/bin/env python3
"""Tests for the summary statistics and the perf_smoke row extraction of
ab.py on canned inputs (no build).

Run: python3 scripts/test_ab.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_single_value(self):
        self.assertEqual(ab.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_five_values(self):
        # statistics.quantiles(n=4), "exclusive" method.
        self.assertEqual(ab.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))


class SummarizeTest(unittest.TestCase):
    def test_clear_win_for_lower_is_better(self):
        a = [0.33, 0.34, 0.33, 0.35, 0.34]
        b = [0.10, 0.10, 0.11, 0.09, 0.10]
        s = ab.summarize(a, b, "lower")
        self.assertEqual(s["median_a"], 0.34)
        self.assertEqual(s["median_b"], 0.10)
        self.assertAlmostEqual(s["ratio"], 0.10 / 0.34)
        self.assertEqual(s["wins"], 5)
        self.assertEqual(s["pairs"], 5)
        self.assertEqual(s["verdict"], "better")

    def test_higher_is_better_counts_wins_per_pair(self):
        a = [100, 100, 100, 100]
        b = [110, 90, 120, 100]  # a tie is not a win
        s = ab.summarize(a, b, "higher")
        self.assertEqual(s["wins"], 2)
        self.assertEqual(s["losses"], 1)
        self.assertEqual(ab.summarize(a, b, "lower")["wins"], 1)

    def test_shift_inside_the_spread_is_noise(self):
        a = [190, 200, 210, 220, 230]  # IQR 30
        b = [200, 210, 220, 230, 240]  # median +10
        s = ab.summarize(a, b, "higher")
        self.assertEqual(s["iqr_a"], 30)
        self.assertEqual(s["wins"], 5)
        self.assertEqual(s["verdict"], "noise")

    def test_shift_past_the_spread_is_not_noise(self):
        a = [190, 200, 210, 220, 230]
        b = [250, 260, 270, 280, 290]  # median +60 > IQR 30
        self.assertEqual(ab.summarize(a, b, "higher")["verdict"], "better")

    def test_better_needs_nine_wins_in_ten(self):
        a = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 5.5
        nine = [x + 20 for x in a[:9]] + [a[9] - 1]
        self.assertEqual(ab.summarize(a, nine, "higher")["verdict"], "better")
        six = [x + 20 for x in a[:6]] + [x - 1 for x in a[6:]]
        s = ab.summarize(a, six, "higher")
        self.assertEqual(s["wins"], 6)
        self.assertGreater(s["median_b"] - s["median_a"], s["iqr_a"])
        self.assertEqual(s["verdict"], "unresolved")

    def test_worse_needs_nine_losses_in_ten(self):
        a = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        b = [x - 20 for x in a[:9]] + [a[9] + 1]
        self.assertEqual(ab.summarize(a, b, "higher")["verdict"], "worse")
        self.assertEqual(ab.summarize(a, b, "lower")["verdict"], "better")

    def test_identical_runs_are_noise(self):
        s = ab.summarize([80.7, 80.7], [80.7, 80.7], "higher")
        self.assertEqual(s["ratio"], 1.0)
        self.assertEqual(s["wins"], 0)
        self.assertEqual(s["losses"], 0)
        self.assertEqual(s["verdict"], "noise")

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            ab.summarize([1, 2], [1], "higher")
        with self.assertRaises(ValueError):
            ab.summarize([], [], "higher")
        with self.assertRaises(ValueError):
            ab.summarize([1], [1], "faster")

    def test_row_names_the_verdict(self):
        better = ab.format_row("setup_s", "s", ab.summarize([0.3] * 3, [0.1] * 3, "lower"))
        self.assertIn("better", better)
        self.assertIn("3/3", better)
        worse = ab.format_row("host_krps", "krps",
                              ab.summarize([200, 201, 199], [150, 151, 149], "higher"))
        self.assertIn("worse", worse)
        noise = ab.format_row("sim_mops", "Mops", ab.summarize([80.7] * 3, [80.7] * 3,
                                                               "higher"))
        self.assertIn("noise", noise)
        unresolved = ab.format_row("host_krps", "krps",
                                   ab.summarize([200, 201, 199], [150, 260, 150], "higher"))
        self.assertIn("unresolved", unresolved)


def smoke_row(config, **extra):
    row = {"config": config, "events_per_sec": 9.5e6, "rpcs_per_sec": 2.4e5,
           "events": 6505529, "rpcs": 168865, "trace_hash": "8465846057676975718",
           "sim_mops": 8.44}
    row.update(extra)
    return row


class PerfSmokeRowsTest(unittest.TestCase):
    def test_extracts_rates_and_identity_of_each_row(self):
        dump = {"bench": "perf_smoke",
                "rows": [smoke_row("scale_par", events=4921900),
                         smoke_row("default"),
                         smoke_row("scale_seq", rpcs_per_sec=2.5e5)]}
        rows = ab.perf_smoke_rows(dump)
        self.assertEqual(sorted(rows), ["default", "scale_par", "scale_seq"])
        self.assertEqual(rows["default"],
                         {"events_per_sec": 9.5e6, "rpcs_per_sec": 2.4e5,
                          "events": 6505529, "rpcs": 168865,
                          "trace_hash": "8465846057676975718"})
        self.assertEqual(rows["scale_par"]["events"], 4921900)
        self.assertEqual(rows["scale_seq"]["rpcs_per_sec"], 2.5e5)

    def test_rejects_another_bench_a_missing_row_or_field(self):
        rows = [smoke_row(c) for c in ab.PERF_SMOKE_ROWS]
        with self.assertRaises(ValueError):
            ab.perf_smoke_rows({"bench": "sim_kernel", "rows": rows})
        with self.assertRaises(ValueError):
            ab.perf_smoke_rows({"bench": "perf_smoke", "rows": rows[:2]})
        del rows[1]["trace_hash"]
        with self.assertRaisesRegex(ValueError, "trace_hash"):
            ab.perf_smoke_rows({"bench": "perf_smoke", "rows": rows})

    def test_reads_the_committed_baseline(self):
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "BENCH_perf_smoke.json")
        with open(path, encoding="utf-8") as f:
            rows = ab.perf_smoke_rows(json.load(f))
        self.assertEqual(rows["scale_seq"]["trace_hash"], rows["scale_par"]["trace_hash"])


if __name__ == "__main__":
    unittest.main()
