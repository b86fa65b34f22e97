#!/usr/bin/env python3
"""Unit tests of tools/bench_pairs.py's verdict on canned paired runs.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""
import unittest

import bench_pairs as bp


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [112, 111, 113, 110, 112, 114, 111, 112, 113, 111]
        self.assertEqual(bp.verdict(parent, change, "higher", 0.25), bp.GAIN)
        # Lower-is-better metrics mirror it.
        self.assertEqual(bp.verdict(change, parent, "lower", 0.25), bp.GAIN)

    def test_fewer_than_ten_pairs_claim_no_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99]
        change = [112, 111, 113, 110, 112, 114, 111, 112, 113]
        self.assertEqual(bp.verdict(parent, change, "higher", 0.25), bp.WITHIN)

    def test_eight_wins_in_ten_is_no_gain(self):
        parent = [100] * 10
        change = [110] * 8 + [90, 90]
        self.assertEqual(bp.wins(parent, change, "higher"), 8)
        self.assertEqual(bp.verdict(parent, change, "higher", 0.25), bp.WITHIN)

    def test_ties_count_for_neither_side(self):
        parent = [100] * 10
        change = [100] * 9 + [101]
        self.assertEqual(bp.wins(parent, change, "higher"), 1)
        self.assertEqual(bp.wins(change, parent, "higher"), 0)
        self.assertEqual(bp.verdict(parent, change, "higher", 0.05), bp.WITHIN)

    def test_worse_by_more_than_the_bound(self):
        parent = [100, 101, 99, 100, 100, 101, 99, 100, 100, 100]
        change = [70, 71, 69, 70, 70, 72, 68, 70, 71, 70]
        self.assertEqual(bp.verdict(parent, change, "higher", 0.25), bp.WORSE)
        self.assertEqual(bp.verdict(parent, change, "higher", 0.35), bp.WITHIN)
        # Peak memory, lower is better, 5% bound: +6% is worse.
        self.assertEqual(bp.verdict([76.3] * 10, [80.9] * 10, "lower", 0.05), bp.WORSE)

    def test_unresolved_when_the_parent_iqr_reaches_the_bound(self):
        # Setup times spread as wide as their 25% bound: the medians differ
        # little, so neither "within bound" nor "worse" can be shown.
        parent = [0.13, 0.21, 0.15, 0.20, 0.14, 0.22, 0.16, 0.19, 0.13, 0.21]
        change = [0.16, 0.14, 0.21, 0.15, 0.20, 0.13, 0.22, 0.17, 0.19, 0.15]
        q1, _, q3 = bp.quartiles(parent)
        self.assertGreaterEqual((q3 - q1) / bp.quartiles(parent)[1], 0.25)
        self.assertEqual(bp.verdict(parent, change, "lower", 0.25), bp.UNRESOLVED)

    def test_wide_spread_resolves_when_every_change_run_reads_better(self):
        parent = [0.30, 0.45, 0.33, 0.50, 0.31, 0.47, 0.36, 0.44, 0.32, 0.49]
        change = [0.25, 0.28, 0.26, 0.27, 0.29, 0.24, 0.26, 0.28, 0.27, 0.25]
        self.assertEqual(bp.wins(parent, change, "lower"), 10)
        # Ten wins, but the gap in medians is under the parent's IQR.
        q1, med, q3 = bp.quartiles(parent)
        self.assertLess(med - bp.quartiles(change)[1], q3 - q1)
        self.assertEqual(bp.verdict(parent, change, "lower", 0.25), bp.WITHIN)

    def test_wide_spread_and_every_change_run_far_worse_is_worse(self):
        parent = [1.0, 1.5, 1.1, 1.6, 1.0, 1.4, 1.2, 1.6, 1.1, 1.5]
        change = [3.0, 3.2, 3.1, 3.3, 3.0, 3.4, 3.1, 3.2, 3.3, 3.0]
        self.assertEqual(bp.verdict(parent, change, "lower", 0.25), bp.WORSE)

    def test_quartiles_interpolate(self):
        self.assertEqual(bp.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(bp.quartiles([7.0]), (7.0, 7.0, 7.0))


if __name__ == "__main__":
    unittest.main()
