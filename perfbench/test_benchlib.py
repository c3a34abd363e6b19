#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_benchlib.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(bl.percentile(xs, 50), 50)
        self.assertEqual(bl.percentile(xs, 90), 90)
        self.assertEqual(bl.percentile(xs, 100), 100)
        self.assertEqual(bl.percentile([7.0], 99), 7.0)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(bl.tail_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(bl.tail_percentile(list(range(1000)))[0], 99.0)
        # 999 samples leave only 9 beyond p99, so p95 is the highest.
        self.assertEqual(bl.tail_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(bl.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(bl.tail_percentile(list(range(99)))[0], 75.0)
        self.assertIsNone(bl.tail_percentile(list(range(15))))

    def test_samples_beyond_are_reported(self):
        p, value, n = bl.tail_percentile([float(i) for i in range(1, 1101)])
        self.assertEqual((p, value, n), (99.0, 1089.0, 11))

    def test_hundred_beyond_p90_needs_a_thousand(self):
        self.assertEqual(bl.beyond(1000, 90), 100)
        self.assertLess(bl.beyond(999, 90), 100)


class OpenLoop(unittest.TestCase):
    def test_due_times_ignore_progress(self):
        self.assertEqual(bl.due_times(10.0, 4, 3), [10.0, 10.25, 10.5])

    def test_stall_is_charged_to_every_delayed_request(self):
        # Three requests due 100 ms apart; the server stalls until 0.5 s
        # and then answers them 10 ms apart.
        due = bl.due_times(0.0, 10, 3)
        received = [0.5, 0.51, 0.52]
        lat = [round(bl.latency_ms(d, r), 6) for d, r in zip(due, received)]
        self.assertEqual(lat, [500.0, 410.0, 320.0])

    def test_latency_counts_generator_lateness(self):
        # Sent 40 ms late, answered 10 ms after sending: 50 ms.
        self.assertAlmostEqual(bl.latency_ms(1.0, 1.05), 50.0)
        self.assertAlmostEqual(bl.lateness_ms(1.0, 1.04), 40.0)

    def test_lateness_is_never_negative(self):
        self.assertEqual(bl.lateness_ms(2.0, 1.999), 0.0)


class SloAttainment(unittest.TestCase):
    def test_failed_and_refused_requests_are_misses(self):
        outcomes = [
            (True, 10.0),   # met
            (True, 30.0),   # too slow
            (False, 5.0),   # fast but wrong, or refused with a 429
            (False, None),  # never answered
        ]
        self.assertEqual(bl.slo_attainment(outcomes, 25.0), 0.25)

    def test_limit_is_inclusive(self):
        self.assertEqual(bl.slo_attainment([(True, 25.0)], 25.0), 1.0)

    def test_empty_is_zero(self):
        self.assertEqual(bl.slo_attainment([], 25.0), 0.0)


def busy_seconds(spans):
    return sum(b - a for a, b in bl.busy_segments(spans))


class BusyTime(unittest.TestCase):
    def test_disjoint_requests_add_up(self):
        self.assertAlmostEqual(busy_seconds([(0.0, 0.01), (0.1, 0.13)]), 0.04)

    def test_overlap_is_counted_once(self):
        # Pipelined: the second request waits behind the first.
        self.assertAlmostEqual(busy_seconds([(0.0, 0.01), (0.005, 0.02)]), 0.02)
        self.assertAlmostEqual(busy_seconds([(0.0, 0.05), (0.01, 0.02)]), 0.05)

    def test_segments_are_disjoint_and_sorted(self):
        spans = [(0.3, 0.4), (0.0, 0.1), (0.05, 0.2), (0.4, 0.45)]
        self.assertEqual(bl.busy_segments(spans), [(0.0, 0.2), (0.3, 0.45)])

    def test_rate_is_set_by_the_server_not_the_offered_load(self):
        # Each request takes 10 ms: 100 per busy second whether they
        # are offered 20 or 50 per second.
        for rate in (20, 50):
            spans = [(t, t + 0.01) for t in bl.due_times(0.0, rate, 40)]
            self.assertAlmostEqual(40 / busy_seconds(spans), 100.0)


class ReferenceSpeed(unittest.TestCase):
    def test_each_time_is_scaled_by_its_own_kernel_time(self):
        # The same op on a host running at half speed reads the same.
        fast = run.at_ref([10.0], [run.REF_MS])
        slow = run.at_ref([20.0], [2 * run.REF_MS])
        self.assertEqual(fast, slow)
        self.assertEqual(fast, [10.0])

    def test_kernel_time_at_a_moment(self):
        samples = [(1.0, 4.0), (2.0, 6.0), (3.0, 8.0)]
        self.assertEqual(bl.ref_at(samples, 1.5), 5.0)  # between two samples
        self.assertEqual(bl.ref_at(samples, 2.0), 7.0)  # at one: it and the next
        self.assertEqual(bl.ref_at(samples, 0.5), 4.0)  # before the first
        self.assertEqual(bl.ref_at(samples, 9.0), 8.0)  # after the last
        self.assertEqual(bl.ref_at([(1.0, 5.0)], 0.0), 5.0)

    def test_layers_still_add_up_to_the_op(self):
        ref = [4.0, 6.0, 5.5]
        ops, a, b = [10.0, 12.0, 11.0], [6.0, 7.0, 5.0], [3.0, 4.0, 5.0]
        res = [o - x - y for o, x, y in zip(ops, a, b)]
        for i, total in enumerate(run.at_ref(ops, ref)):
            parts = sum(run.at_ref(layer, ref)[i] for layer in (a, b, res))
            self.assertAlmostEqual(parts, total)


class Spread(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual(bl.quartiles(xs), (q1, q2, q3))
        self.assertAlmostEqual(bl.spread(xs), (q3 - q1) / q2)

    def test_constant_has_no_spread(self):
        self.assertEqual(bl.spread([2.0] * 10), 0.0)


class LayerRows(unittest.TestCase):
    def test_middle_half(self):
        self.assertEqual(sorted(bl.middle_half([9, 1, 5, 7, 3, 100, 2, 4])), [2, 3, 4, 7])
        self.assertEqual(bl.middle_half([4.0]), [0])

    def test_rows_plus_residual_add_up_to_the_op(self):
        # Per op: two layers and a residual that make up the op time.
        ops = [10.0, 12.0, 50.0, 11.0, 9.0, 13.0]
        a = [6.0, 7.0, 40.0, 6.0, 5.0, 8.0]
        b = [3.0, 4.0, 9.0, 4.0, 3.5, 4.0]
        res = [o - x - y for o, x, y in zip(ops, a, b)]
        mid = bl.middle_half(ops)
        total = bl.mean_at(a, mid) + bl.mean_at(b, mid) + bl.mean_at(res, mid)
        self.assertAlmostEqual(total, bl.mean_at(ops, mid))
        self.assertNotIn(2, mid)  # the outlying op is left out


class Steal(unittest.TestCase):
    def test_share_of_jiffies(self):
        self.assertAlmostEqual(bl.steal_share((1000, 10), (2000, 60)), 0.05)
        self.assertEqual(bl.steal_share((5, 1), (5, 1)), 0.0)


class Definition(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics and workloads run.py has."""

    def setUp(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            self.bench = json.load(f)

    def test_metrics(self):
        pairs = lambda ms: [(m["name"], m["unit"]) for m in ms]  # noqa: E731
        self.assertEqual(pairs(self.bench["end_to_end"]), run.END_TO_END)
        self.assertEqual(pairs(self.bench["per_layer"]), run.PER_LAYER)

    def test_workloads(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            params = json.load(f)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(params))


if __name__ == "__main__":
    unittest.main()
