"""Tests of the benchmark's own metric math (test_smoke.py runs each
workload briefly).

    python3 -m unittest discover -s perfbench -p 'test_metrics.py'
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402


def span(name, start, dur, lane=0, seg=0):
    return (name, seg, lane, start, dur, 0)


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            M.median([])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(M.percentile(range(1, 101), 25), 25)
        self.assertEqual(M.percentile([5, 1, 3, 2], 25), 1)
        self.assertEqual(M.percentile([5, 1, 3, 2], 26), 2)
        self.assertEqual(M.percentile([7], 25), 7)


class TailTest(unittest.TestCase):
    def test_too_few_samples(self):
        # 19 samples: the median has only 9 beyond it.
        self.assertIsNone(M.tail(range(19)))

    def test_median_is_the_floor(self):
        p, value, beyond = M.tail(range(1, 21))  # 20 samples
        self.assertEqual((p, value, beyond), (50.0, 10, 10))

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 is rank 90, ten beyond; p95 has only five.
        p, value, beyond = M.tail(range(1, 101))
        self.assertEqual((p, value, beyond), (90.0, 90, 10))

    def test_order_does_not_matter(self):
        self.assertEqual(M.tail(list(range(1000, 0, -1))),
                         (99.0, 990, 10))


class SelfTimeTest(unittest.TestCase):
    def test_direct_children_only(self):
        spans = [span("root", 0, 100),
                 span("a", 10, 30),
                 span("a.inner", 15, 20),   # grandchild: not root's
                 span("b", 50, 20)]
        nodes = {n["name"]: n for n in M.nest(spans)}
        self.assertEqual(M.self_time(nodes["root"]), 100 - 30 - 20)
        self.assertEqual(M.self_time(nodes["a"]), 30 - 20)
        self.assertEqual(M.self_time(nodes["a.inner"]), 20)
        self.assertIsNone(nodes["root"]["parent"])

    def test_lanes_and_segments_do_not_nest(self):
        spans = [span("root", 0, 100, lane=0),
                 span("worker", 10, 50, lane=100),
                 span("other_session", 10, 50, seg=1)]
        nodes = {n["name"]: n for n in M.nest(spans)}
        self.assertEqual(M.self_time(nodes["root"]), 100)
        self.assertIsNone(nodes["worker"]["parent"])
        self.assertIsNone(nodes["other_session"]["parent"])

    def test_siblings_after_a_closed_span(self):
        spans = [span("a", 0, 10), span("b", 10, 10), span("c", 12, 3)]
        nodes = {n["name"]: n for n in M.nest(spans)}
        self.assertIsNone(nodes["b"]["parent"])
        self.assertEqual(M.self_time(nodes["b"]), 7)
        self.assertEqual(M.self_time(nodes["a"]), 10)


class ExplainedTest(unittest.TestCase):
    def test_fraction_and_gap(self):
        spans = [span("prove", 0, 100), span("msm", 0, 60),
                 span("ntt", 70, 20),
                 span("prove", 200, 100), span("msm", 200, 100)]
        agg = M.explained(spans)
        self.assertEqual(set(agg), {"prove"})  # leaves have no entry
        a = agg["prove"]
        self.assertEqual((a["count"], a["total_ns"], a["self_ns"]),
                         (2, 200, 20))
        self.assertAlmostEqual(a["explained"], 0.9)


class RateAndOverheadTest(unittest.TestCase):
    def test_rate_is_rows_over_summed_medians(self):
        rows = {"a": 100, "b": 300, "unused": 5}
        proves = {"a": [1.0, 3.0, 2.0], "b": [2.0]}
        self.assertAlmostEqual(M.rate(rows, proves), 400 / 4.0)

    def test_overhead(self):
        self.assertAlmostEqual(M.overhead([1.1, 1.1], [1.0, 1.0]), 0.1)


if __name__ == "__main__":
    unittest.main()
