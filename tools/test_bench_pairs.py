#!/usr/bin/env python3
"""Unit tests of tools/bench_pairs.py's verdict on canned paired runs, and of
its placement report on canned `nm -C` output.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""
import contextlib
import io
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



PARENT_NM = """\
0000000000412340 T cav::sim::Simulation::decide_for(cav::sim::AgentRuntime&, unsigned long, double)
0000000000401a00 t cav::sim::Simulation::decide_for(cav::sim::AgentRuntime&, unsigned long, double) [clone .cold]
0000000000412f80 T cav::sim::Simulation::decide_all(double)
0000000000420100 T cav::sim::UavAgent::step(double, cav::sim::DisturbanceConfig const&, cav::RngStream&)
0000000000430000 W cav::sim::AdsbSensor::observe(cav::Vec3 const&, cav::Vec3 const&, cav::RngStream&) const
0000000000500000 B cav::sim::Simulation::refresh_tracks_counter
                 U memcpy
"""

# The same binary with every function 0x960 bytes later, as a change
# elsewhere in the text segment moves them.
CHANGE_NM = """\
0000000000412ca0 T cav::sim::Simulation::decide_for(cav::sim::AgentRuntime&, unsigned long, double)
00000000004138e0 T cav::sim::Simulation::decide_all(double)
0000000000420a80 T cav::sim::UavAgent::step(double, cav::sim::DisturbanceConfig const&, cav::RngStream&)
0000000000450000 T cav::sim::PairwiseMonitors::replay_slot(cav::sim::PairwiseMonitors::PairSlot&, double const*, cav::Vec3 const*, cav::Vec3 const*, unsigned long)
"""


class PlacementTest(unittest.TestCase):
    def test_parse_keeps_text_symbols_of_the_list_only(self):
        found = bp.parse_nm(PARENT_NM)
        self.assertEqual(found, {
            "cav::sim::Simulation::decide_for": 0x412340,
            "cav::sim::Simulation::decide_all": 0x412f80,
            "cav::sim::UavAgent::step": 0x420100,
        })

    def test_rows_flag_a_changed_cache_line_offset(self):
        rows = {row[0]: row[1:] for row in bp.placement_rows(bp.parse_nm(PARENT_NM),
                                                               bp.parse_nm(CHANGE_NM))}
        self.assertEqual(rows["cav::sim::Simulation::decide_for"], (0, 32, True))
        self.assertEqual(rows["cav::sim::Simulation::decide_all"], (0, 32, True))
        self.assertEqual(rows["cav::sim::UavAgent::step"], (0, 0, False))
        # Missing on one side or both: shown, never flagged.
        self.assertEqual(rows["cav::sim::PairwiseMonitors::replay_slot"], (None, 0, False))
        self.assertEqual(rows["cav::sim::AdsbSensor::observe"], (None, None, False))
        self.assertEqual(len(rows), len(bp.HOT_SYMBOLS))

    def test_report_prints_every_symbol(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            bp.placement_report(bp.parse_nm(PARENT_NM), bp.parse_nm(CHANGE_NM))
        lines = out.getvalue().strip().splitlines()
        self.assertEqual(len(lines), 2 + len(bp.HOT_SYMBOLS))
        self.assertEqual(sum(line.endswith("moved") for line in lines), 2)


if __name__ == "__main__":
    unittest.main()
