"""Tests for the benchmark's own metric code.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from metrics import (  # noqa: E402
    Ledger,
    OpError,
    SimTally,
    attempt,
    cost_regret_max,
    layer_time,
    self_times,
)


def span(name, start, end, parent, lookup_s=0.0):
    return [name, start, end, parent, lookup_s, "run0"]


class SpanArithmetic(unittest.TestCase):
    # cli.main 0-10 > simulate 1-8 > (gateway.step 2-3, gateway.step 4-6), lookups 0.5 s in simulate
    SPANS = [
        span("cli.main", 0.0, 10.0, -1),
        span("simulator.simulate", 1.0, 8.0, 0, lookup_s=0.5),
        span("gateway.step", 2.0, 3.0, 1),
        span("gateway.step", 4.0, 6.0, 1),
    ]

    def test_self_time_subtracts_direct_children_and_lookups(self):
        self.assertEqual(self_times(self.SPANS), [3.0, 3.5, 1.0, 2.0])

    def test_self_times_add_up_to_the_root(self):
        self.assertAlmostEqual(sum(self_times(self.SPANS)) + 0.5, 10.0)

    def test_layer_time_counts_nested_spans_once(self):
        spans = [
            span("graph.load_document", 0.0, 4.0, -1),
            span("graph.parse_document", 1.0, 3.0, 0),
            span("graph.parse_document", 5.0, 6.0, -1),
        ]
        self.assertEqual(layer_time(spans, {"graph.load_document", "graph.parse_document"}), 5.0)
        self.assertEqual(layer_time(self.SPANS, {"gateway.step"}), 3.0)


class MemifStats(unittest.TestCase):
    def test_mean_flows_and_busy_fraction_from_segments(self):
        tally = SimTally()
        # 2 flows for 100 ns, 4 flows for 300 ns, idle otherwise, over a 1000 ns run
        tally.add_segments([(0, 100, 2, 240.0), (500, 800, 4, 360.0)])
        tally.span_ns = 1000
        counts = tally.counts()
        self.assertEqual(counts["simulator.memif.segments"], 2)
        self.assertEqual(counts["simulator.memif.max_flows"], 4)
        self.assertAlmostEqual(counts["simulator.memif.mean_flows"], (2 * 100 + 4 * 300) / 400)
        self.assertAlmostEqual(counts["simulator.memif.busy_fraction"], 0.4)
        self.assertEqual(counts["simulator.memif.bytes"], 600.0)

    def test_no_segments_reads_zero(self):
        counts = SimTally().counts()
        self.assertEqual(counts["simulator.memif.mean_flows"], 0.0)
        self.assertEqual(counts["simulator.memif.busy_fraction"], 0.0)


class CostRegret(unittest.TestCase):
    def test_two_cell_grid(self):
        cells = [
            ("GW", {"SMT": 100.0, "GW": 80.0}),  # right pick
            ("SMT", {"SMT": 140.0, "GW": 100.0}),  # wrong pick, 1.4x slower
        ]
        self.assertAlmostEqual(cost_regret_max(cells), 1.4)

    def test_all_right_picks_read_one(self):
        self.assertEqual(cost_regret_max([("SMT", {"SMT": 5.0, "GW": 9.0})]), 1.0)


class ErrorAccounting(unittest.TestCase):
    def test_raise_and_nonzero_exit_fail_their_operation(self):
        ledger = Ledger()

        def raises():
            raise ValueError("boom")

        def exits():
            raise SystemExit(2)

        for name, fn in (("ok", lambda: 1), ("raises", raises), ("exits", exits)):
            _, problems = attempt(fn)
            ledger.record(name, problems)
        ledger.record("bad-output", ["check failed"])
        self.assertEqual((ledger.attempted, ledger.failed), (4, 3))
        self.assertEqual(ledger.error_rate, 0.75)
        self.assertEqual(len(ledger.problems), 3)

    def test_cli_exit_code_counts_as_failure(self):
        from workloads import cli

        value, problems = attempt(lambda: cli("map", "--graph", "no-such-graph.json", "--policy", "smt"))
        self.assertIsNone(value)
        self.assertEqual(len(problems), 1)
        self.assertIn("exited 2", problems[0])
        self.assertRaises(OpError, cli, "map", "--graph", "no-such-graph.json", "--policy", "smt")


if __name__ == "__main__":
    unittest.main()
