"""ExtentMap behavioural tests (overwrite semantics, merging, lookup)."""

import pytest

from repro.extentmap.base import Segment
from repro.extentmap.extent_map import ExtentMap


@pytest.fixture
def emap():
    return ExtentMap()


class TestLookupEmpty:
    def test_unmapped_is_single_hole(self, emap):
        assert emap.lookup(0, 10) == [Segment(0, None, 10)]

    def test_invalid_lookup(self, emap):
        with pytest.raises(ValueError):
            emap.lookup(0, 0)


class TestMapRange:
    def test_simple_map(self, emap):
        emap.map_range(10, 1000, 5)
        assert emap.lookup(10, 5) == [Segment(10, 1000, 5)]

    def test_partial_lookup(self, emap):
        emap.map_range(10, 1000, 5)
        assert emap.lookup(12, 2) == [Segment(12, 1002, 2)]

    def test_lookup_with_edges(self, emap):
        emap.map_range(10, 1000, 5)
        segments = emap.lookup(8, 10)
        assert segments == [
            Segment(8, None, 2),
            Segment(10, 1000, 5),
            Segment(15, None, 3),
        ]

    def test_invalid_map(self, emap):
        with pytest.raises(ValueError):
            emap.map_range(0, 0, 0)
        with pytest.raises(ValueError):
            emap.map_range(-1, 0, 1)


class TestOverwrite:
    def test_full_overwrite(self, emap):
        emap.map_range(0, 100, 10)
        emap.map_range(0, 200, 10)
        assert emap.lookup(0, 10) == [Segment(0, 200, 10)]
        assert len(emap) == 1

    def test_middle_split(self, emap):
        emap.map_range(0, 100, 10)
        emap.map_range(3, 200, 4)
        assert emap.lookup(0, 10) == [
            Segment(0, 100, 3),
            Segment(3, 200, 4),
            Segment(7, 107, 3),
        ]
        assert len(emap) == 3

    def test_front_overlap(self, emap):
        emap.map_range(5, 100, 10)
        emap.map_range(0, 200, 8)
        assert emap.lookup(0, 15) == [
            Segment(0, 200, 8),
            Segment(8, 103, 7),
        ]

    def test_back_overlap(self, emap):
        emap.map_range(0, 100, 10)
        emap.map_range(8, 200, 8)
        assert emap.lookup(0, 16) == [
            Segment(0, 100, 8),
            Segment(8, 200, 8),
        ]

    def test_overwrite_spanning_multiple_extents(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(4, 200, 4)
        emap.map_range(8, 300, 4)
        emap.map_range(2, 400, 8)
        assert emap.lookup(0, 12) == [
            Segment(0, 100, 2),
            Segment(2, 400, 8),
            Segment(10, 302, 2),
        ]

    def test_exact_replacement_of_middle_extent(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(4, 200, 4)
        emap.map_range(8, 300, 4)
        emap.map_range(4, 500, 4)
        assert emap.lookup(4, 4) == [Segment(4, 500, 4)]
        assert len(emap) == 3


class TestMerging:
    def test_adjacent_contiguous_merge(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(4, 104, 4)
        assert len(emap) == 1
        assert emap.lookup(0, 8) == [Segment(0, 100, 8)]

    def test_adjacent_non_contiguous_no_merge(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(4, 200, 4)
        assert len(emap) == 2

    def test_merge_both_sides(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(8, 108, 4)
        emap.map_range(4, 104, 4)
        assert len(emap) == 1
        assert emap.lookup(0, 12) == [Segment(0, 100, 12)]

    def test_logical_adjacent_physical_gap_no_merge(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(4, 105, 4)
        assert len(emap) == 2


class TestCounters:
    def test_mapped_extent_count(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(10, 200, 4)
        assert emap.mapped_extent_count() == 2

    def test_mapped_sector_count(self, emap):
        emap.map_range(0, 100, 4)
        emap.map_range(2, 200, 4)  # overlaps two sectors
        assert emap.mapped_sector_count() == 6

    def test_hole_merging_in_lookup(self, emap):
        segments = emap.lookup(0, 100)
        assert len(segments) == 1 and segments[0].is_hole


class TestSegmentValidation:
    def test_segment_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Segment(0, 0, 0)

    def test_segment_rejects_negative(self):
        with pytest.raises(ValueError):
            Segment(-1, 0, 1)
        with pytest.raises(ValueError):
            Segment(0, -1, 1)
