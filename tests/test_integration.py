"""Cross-algorithm integration tests: the paper's comparison claims.

These are the end-to-end "who wins, and in what shape" assertions that
the benchmark tables are built on — kept at modest n so the suite stays
fast, with the full-size versions living in benchmarks/.
"""

import math

import pytest

from repro import broadcast
from repro.analysis.runner import aggregate, series, sweep
from repro.analysis.theory import best_growth_class, grows_slower_than


class TestEveryAlgorithmCompletes:
    @pytest.mark.parametrize(
        "algorithm",
        ["push", "pull", "push-pull", "median-counter", "avin-elsasser", "cluster1", "cluster2"],
    )
    def test_complete_and_valid(self, algorithm):
        report = broadcast(2048, algorithm, seed=0)
        assert report.success
        assert report.metrics.total.max_initiations <= 1


class TestShapeClaims:
    """E1/E2 in miniature: growth classes of rounds and messages."""

    NS = [2**8, 2**10, 2**12, 2**14]
    SEEDS = [0, 1]

    @pytest.fixture(scope="class")
    def records(self):
        return sweep(
            ["push", "cluster2", "median-counter"], self.NS, self.SEEDS
        )

    def test_push_rounds_grow_logarithmically(self, records):
        ns, ys = series(aggregate(records), "push", "spread_rounds")
        assert best_growth_class(ns, ys).family in ("log", "sqrtlog")

    def test_cluster2_rounds_within_loglog_budget(self, records):
        """At laptop n the per-iteration constants dominate the absolute
        round count (benchmarks/bench_e1_rounds.py tabulates it); the
        testable claim here is the Theta(log log n) budget with a fixed
        constant."""
        ns, ys = series(aggregate(records), "cluster2", "spread_rounds")
        for n, y in zip(ns, ys):
            assert y <= 40 * math.log2(math.log2(n)) + 25

    def test_cluster2_iteration_counters_are_loglog(self):
        """The clean loglog quantity: phase iteration counts barely move
        across a 256x change in n."""
        small = broadcast(2**9, "cluster2", seed=0).extras["square_iterations"]
        large = broadcast(2**17, "cluster2", seed=0).extras["square_iterations"]
        assert large <= small + math.log2(math.log2(2**17)) + 2

    def test_cluster2_messages_flat(self, records):
        ns, ys = series(aggregate(records), "cluster2", "messages_per_node")
        # O(1)/node: across a 64x range of n the curve stays within 45%
        assert max(ys) <= 1.45 * min(ys) + 2

    def test_push_messages_grow(self, records):
        ns, ys = series(aggregate(records), "push", "messages_per_node")
        assert ys[-1] >= ys[0] + 0.5 * (math.log2(self.NS[-1]) - math.log2(self.NS[0])) * 0.5


class TestDeltaTradeoffMiniature:
    def test_fanin_and_completion(self):
        n = 2**12
        for delta in (128, 512):
            report = broadcast(n, "cluster3", seed=0, delta=delta)
            assert report.success
            assert report.max_fanin <= delta


class TestBitComplexity:
    def test_cluster2_bits_linear_in_n(self):
        """O(nb): bits/node/b stays bounded as n grows."""
        b = 2048
        per_node = []
        for n in (2**10, 2**13):
            report = broadcast(n, "cluster2", seed=0, message_bits=b)
            per_node.append(report.bits / n / b)
        assert per_node[1] <= 1.6 * per_node[0] + 0.5

    def test_big_payload_dominated_by_share(self):
        n = 1024
        b = 10**6  # 1 Mb rumor
        report = broadcast(n, "cluster2", seed=0, message_bits=b)
        assert report.bits <= 6 * n * b
