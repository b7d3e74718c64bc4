"""Unit tests for the benchmark's own arithmetic (analysis.py).

    python3 perfbench/run.py --self-test
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analysis  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(analysis.percentile(values, 0.5), 50)
        self.assertEqual(analysis.percentile(values, 0.99), 99)
        self.assertEqual(analysis.percentile(values, 1.0), 100)
        self.assertEqual(analysis.percentile([7.0], 0.99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(analysis.percentile([5, 1, 4, 2, 3], 0.6), 3)

    def test_samples_beyond(self):
        self.assertEqual(analysis.samples_beyond(1000, 0.99), 10)
        self.assertEqual(analysis.samples_beyond(999, 0.99), 9)
        self.assertEqual(analysis.samples_beyond(100, 0.99), 1)
        self.assertEqual(analysis.samples_beyond(1, 0.5), 0)

    def test_highest_supported_quantile_needs_ten_beyond(self):
        self.assertEqual(analysis.highest_supported_quantile(10000), 0.999)
        self.assertEqual(analysis.highest_supported_quantile(9999), 0.99)
        self.assertEqual(analysis.highest_supported_quantile(1000), 0.99)
        self.assertEqual(analysis.highest_supported_quantile(999), 0.95)
        self.assertEqual(analysis.highest_supported_quantile(100), 0.9)
        self.assertEqual(analysis.highest_supported_quantile(20), 0.5)
        self.assertIsNone(analysis.highest_supported_quantile(19))

    def test_median_interpolates(self):
        self.assertEqual(analysis.median([1, 2, 3, 4]), 2.5)


EXPOSITION_BEFORE = '''# HELP aft_node_txns_committed_total Transactions committed
# TYPE aft_node_txns_committed_total counter
aft_node_txns_committed_total{node="aft-0"} 500
aft_node_commit_latency_ms_bucket{node="aft-0",le="1"} 400
aft_node_commit_latency_ms_bucket{node="aft-0",le="+Inf"} 500
aft_node_commit_latency_ms_sum{node="aft-0"} 250.5
aft_node_commit_latency_ms_count{node="aft-0"} 500
aft_commit_stage_seconds_sum{node="aft-0",stage="barrier"} 0.1
'''

# The same process later: node aft-0 was torn down and re-created with the
# same id, so its series kept counting from where they were; node aft-1
# appeared during the run.
EXPOSITION_AFTER = '''aft_node_txns_committed_total{node="aft-0"} 800
aft_node_txns_committed_total{node="aft-1"} 40
aft_node_commit_latency_ms_bucket{node="aft-0",le="1"} 600
aft_node_commit_latency_ms_bucket{node="aft-0",le="+Inf"} 800
aft_node_commit_latency_ms_sum{node="aft-0"} 400.5
aft_node_commit_latency_ms_count{node="aft-0"} 800
aft_commit_stage_seconds_sum{node="aft-0",stage="barrier"} 0.25
aft_commit_stage_seconds_sum{node="aft-0",stage="data_flush"} 0.05
aft_net_rpc_latency_ms_count{method="Get \\"quoted\\"",node="aft-1"} 3
'''


class RegistryDeltaTest(unittest.TestCase):
    def setUp(self):
        self.delta = analysis.registry_delta(analysis.parse_exposition(EXPOSITION_BEFORE),
                                             analysis.parse_exposition(EXPOSITION_AFTER))

    def test_counter_delta_survives_recreated_node(self):
        self.assertEqual(analysis.total(self.delta, 'aft_node_txns_committed_total', node='aft-0'), 300)

    def test_series_new_during_run_count_from_zero(self):
        self.assertEqual(analysis.total(self.delta, 'aft_node_txns_committed_total', node='aft-1'), 40)
        self.assertEqual(analysis.total(self.delta, 'aft_node_txns_committed_total'), 340)

    def test_histogram_mean_of_the_run_only(self):
        self.assertAlmostEqual(analysis.histogram_mean(self.delta, 'aft_node_commit_latency_ms'), 0.5)
        self.assertEqual(analysis.total(self.delta, 'aft_node_commit_latency_ms_bucket', le='1'), 200)

    def test_label_filters(self):
        self.assertAlmostEqual(analysis.total(self.delta, 'aft_commit_stage_seconds_sum', stage='barrier'), 0.15)
        self.assertAlmostEqual(analysis.total(self.delta, 'aft_commit_stage_seconds_sum'), 0.2)
        self.assertEqual(analysis.total(self.delta, 'aft_commit_stage_seconds_sum', stage='nope'), 0)

    def test_escaped_label_values(self):
        self.assertEqual(analysis.total(self.delta, 'aft_net_rpc_latency_ms_count', method='Get "quoted"'), 3)

    def test_stage_overshoot(self):
        # 0.2 s of stages inside 0.15 s of commit time is double counting.
        self.assertGreater(analysis.commit_stage_overshoot(self.delta), 0)
        ok = analysis.registry_delta({}, analysis.parse_exposition(
            'aft_node_commit_latency_ms_sum{node="a"} 1000\n'
            'aft_node_commit_latency_ms_count{node="a"} 10\n'
            'aft_commit_stage_seconds_sum{node="a",stage="barrier"} 0.9\n'))
        self.assertLess(analysis.commit_stage_overshoot(ok), 0)

    def test_counter_snapshot_delta(self):
        self.assertEqual(analysis.counter_delta({'wal.fsyncs': 10}, {'wal.fsyncs': 25}, 'wal.fsyncs'), 15)
        self.assertEqual(analysis.counter_delta({}, {}, 'wal.fsyncs'), 0)


def span(request, span_id, parent, name, start, end):
    return {'request': request, 'id': span_id, 'parent': parent, 'name': name,
            'start': start, 'end': end}


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [span(1, 1, 0, 'request', 0, 100),
                 span(1, 2, 1, 'client.start', 0, 10),
                 span(1, 3, 1, 'faas.invoke_chain', 20, 90),
                 span(1, 4, 3, 'faas.function', 30, 80),
                 span(1, 5, 4, 'client.read', 40, 60)]
        self.assertEqual(analysis.self_times(spans), [100 - 10 - 70, 10, 70 - 50, 50 - 20, 20])

    def test_overlapping_children_are_counted_once(self):
        spans = [span(1, 1, 0, 'request', 0, 100),
                 span(1, 2, 1, 'a', 10, 50),
                 span(1, 3, 1, 'b', 30, 70)]
        self.assertEqual(analysis.self_times(spans)[0], 100 - 60)

    def test_children_clipped_to_parent(self):
        self.assertEqual(analysis.covered([(-10, 20), (90, 150)], 0, 100), 30)

    def test_requests_do_not_mix(self):
        spans = [span(1, 1, 0, 'request', 0, 100),
                 span(2, 1, 0, 'request', 0, 100),
                 span(2, 2, 1, 'client.commit', 0, 100)]
        self.assertEqual(analysis.self_times(spans), [100, 0, 100])

    def test_by_name_and_reconciliation(self):
        spans = [span(1, 1, 0, 'request', 0, 1_000_000),
                 span(1, 2, 1, 'faas.invoke_chain', 0, 600_000),
                 span(1, 3, 2, 'faas.function', 100_000, 500_000),
                 span(1, 4, 3, 'client.read', 200_000, 400_000),
                 span(1, 5, 1, 'client.commit', 700_000, 900_000)]
        by_name = analysis.self_time_by_name(spans)
        self.assertEqual(by_name['faas.invoke_chain']['self'], 200_000)
        self.assertEqual(by_name['request']['self'], 200_000)
        delta = analysis.parse_exposition('aft_node_read_latency_ms_sum{node="a"} 0.1\n')
        rows = analysis.reconcile(by_name, delta, scale=1.0)
        self.assertAlmostEqual(rows['request'], 1.0)
        self.assertAlmostEqual(rows['client.calls'], 0.4)
        self.assertAlmostEqual(rows['client.other'], 0.3)
        # request self (0.2 ms) + function-body self (0.2 ms) are unattributed.
        self.assertAlmostEqual(rows['unattributed'], 0.4)
        self.assertAlmostEqual(rows['faas.dispatch'] + rows['client.calls'] + rows['unattributed'],
                               rows['request'])

    def test_parse_spans(self):
        spans = analysis.parse_spans('5\t2\t1\tclient.read\t100\t250\n')
        self.assertEqual(spans, [span(5, 2, 1, 'client.read', 100, 250)])


if __name__ == '__main__':
    unittest.main()
