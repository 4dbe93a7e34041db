#!/usr/bin/env python3
"""Unit tests for report.py's bound check and summary statistics."""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402


class CheckBoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertEqual(report.check_bound("lower", 0.10, 100.0, 109.0)[2], False)
        self.assertEqual(report.check_bound("lower", 0.10, 100.0, 111.0)[2], True)
        # Getting faster is never a regression, however large.
        self.assertEqual(report.check_bound("lower", 0.10, 100.0, 10.0)[2], False)

    def test_higher_is_better(self):
        self.assertEqual(report.check_bound("higher", 0.10, 100.0, 91.0)[2], False)
        self.assertEqual(report.check_bound("higher", 0.10, 100.0, 89.0)[2], True)
        self.assertEqual(report.check_bound("higher", 0.10, 100.0, 500.0)[2], False)

    def test_absolute_floor_applies_when_larger(self):
        # 10% of 5 ms is 0.5 ms; the 50 ms floor allows more.
        worse_by, allowed, regressed = report.check_bound("lower", 0.10, 0.005, 0.04, 0.05)
        self.assertAlmostEqual(worse_by, 0.035)
        self.assertEqual(allowed, 0.05)
        self.assertFalse(regressed)
        self.assertTrue(report.check_bound("lower", 0.10, 0.005, 0.06, 0.05)[2])
        # Above the floor the relative bound governs.
        self.assertEqual(report.check_bound("lower", 0.10, 2.0, 2.3, 0.05)[1], 0.2)
        self.assertTrue(report.check_bound("lower", 0.10, 2.0, 2.3, 0.05)[2])

    def test_rejects_unknown_direction(self):
        with self.assertRaises(ValueError):
            report.check_bound("sideways", 0.1, 1.0, 1.0)


class SummaryTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        stats = report.summarize_values([float(v) for v in range(1, 11)])
        self.assertEqual((stats["q1"], stats["median"], stats["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(report.spread(stats), 1.0)

    def test_single_value(self):
        stats = report.summarize_values([3.0])
        self.assertEqual((stats["q1"], stats["median"], stats["q3"], stats["n"]),
                         (3.0, 3.0, 3.0, 1))


if __name__ == "__main__":
    unittest.main()
