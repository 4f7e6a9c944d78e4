"""Unit tests for generator helper functions."""

from repro.workloads.generator import _split_counts


class TestSplitCounts:
    def test_proportional(self):
        assert _split_counts(100, (1.0, 1.0)) == [50, 50]

    def test_remainder_to_first(self):
        counts = _split_counts(10, (1.0, 1.0, 1.0))
        assert sum(counts) == 10
        assert counts[0] >= counts[1] == counts[2]

    def test_zero_weight_bucket(self):
        counts = _split_counts(10, (1.0, 0.0))
        assert counts == [10, 0]

    def test_total_preserved_always(self):
        for total in (0, 1, 7, 99):
            for weights in ((0.3, 0.7), (1, 2, 3), (0.1, 0.0, 0.9)):
                assert sum(_split_counts(total, weights)) == total

