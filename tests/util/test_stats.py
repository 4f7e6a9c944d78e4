"""Empirical-CDF tests."""

from repro.util.stats import empirical_cdf


class TestEmpiricalCdf:
    def test_basic(self):
        assert empirical_cdf([1, 1, 3]) == [(1, 2 / 3), (3, 1.0)]

    def test_empty(self):
        assert empirical_cdf([]) == []
