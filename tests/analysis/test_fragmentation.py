"""Dynamic-fragmentation analysis tests (Fig. 5)."""

import pytest

from repro.analysis.fragmentation import (fragment_cdf, fragment_concentration,
                                          fraction_of_fragments_in_top_reads)


class TestFragmentCdf:
    def test_ignores_unfragmented(self):
        cdf = fragment_cdf([1, 1, 2, 3])
        assert [x for x, _ in cdf] == [2.0, 3.0]

    def test_cdf_values(self):
        cdf = fragment_cdf([2, 2, 4])
        assert cdf == [(2.0, 2 / 3), (4.0, 1.0)]

    def test_empty(self):
        assert fragment_cdf([1, 1]) == []


class TestConcentration:
    def test_lorenz_shape(self):
        curve = fragment_concentration([10, 2, 2, 2])
        # Top read (25% of reads) holds 10/16 of fragments.
        assert curve[0] == (0.25, 10 / 16)
        assert curve[-1] == (1.0, 1.0)

    def test_uniform_fragments_linear(self):
        curve = fragment_concentration([2, 2, 2, 2])
        for frac_reads, frac_frags in curve:
            assert abs(frac_reads - frac_frags) < 1e-12

    def test_empty(self):
        assert fragment_concentration([1]) == []


class TestTopReadsShare:
    def test_skewed(self):
        # One read with 50 fragments among ten 2-fragment reads.
        fragments = [50] + [2] * 10
        share = fraction_of_fragments_in_top_reads(fragments, top_fraction=0.1)
        assert share > 0.7

    def test_uniform_matches_fraction(self):
        share = fraction_of_fragments_in_top_reads([2] * 10, top_fraction=0.2)
        assert abs(share - 0.2) < 1e-12

    def test_empty_returns_zero(self):
        assert fraction_of_fragments_in_top_reads([1, 1]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fraction_of_fragments_in_top_reads([2], top_fraction=0.0)
        with pytest.raises(ValueError):
            fraction_of_fragments_in_top_reads([2], top_fraction=1.5)
