"""Property tests: ExtentMap must agree with the BlockMap specification.

BlockMap is trivially correct (one dict entry per sector); ExtentMap is the
optimized production structure.  Any divergence on any operation sequence
is a bug in ExtentMap's split/trim/merge logic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extentmap.block_map import BlockMap
from repro.extentmap.extent_map import ExtentMap

ADDRESS_SPACE = 256

ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),  # lba
        st.integers(min_value=1, max_value=32),                 # length
        st.integers(min_value=0, max_value=10_000),             # pba
    ),
    min_size=0,
    max_size=40,
)

queries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
        st.integers(min_value=1, max_value=64),
    ),
    min_size=1,
    max_size=10,
)


def build_maps(operations):
    emap, bmap = ExtentMap(), BlockMap()
    for lba, length, pba in operations:
        emap.map_range(lba, pba, length)
        bmap.map_range(lba, pba, length)
    return emap, bmap


class TestEquivalence:
    @given(ops=ops, qs=queries)
    @settings(max_examples=200, deadline=None)
    def test_lookup_equivalence(self, ops, qs):
        emap, bmap = build_maps(ops)
        for lba, length in qs:
            assert emap.lookup(lba, length) == bmap.lookup(lba, length)

    @given(ops=ops)
    @settings(max_examples=200, deadline=None)
    def test_mapped_sector_count_equivalence(self, ops):
        emap, bmap = build_maps(ops)
        assert emap.mapped_sector_count() == bmap.mapped_sector_count()

    @given(ops=ops)
    @settings(max_examples=200, deadline=None)
    def test_full_space_lookup_equivalence(self, ops):
        emap, bmap = build_maps(ops)
        assert emap.lookup(0, ADDRESS_SPACE + 64) == bmap.lookup(0, ADDRESS_SPACE + 64)


class TestExtentMapInvariants:
    @given(ops=ops)
    @settings(max_examples=200, deadline=None)
    def test_extents_sorted_non_overlapping(self, ops):
        emap, _ = build_maps(ops)
        extents = list(emap)
        for a, b in zip(extents, extents[1:]):
            assert a.lba_end <= b.lba

    @given(ops=ops)
    @settings(max_examples=200, deadline=None)
    def test_no_mergeable_neighbours_remain(self, ops):
        # The map must keep itself canonical: adjacent extents that are
        # contiguous in both spaces would under-count fragmentation.
        emap, _ = build_maps(ops)
        extents = list(emap)
        for a, b in zip(extents, extents[1:]):
            assert not (a.lba_end == b.lba and a.pba_end == b.pba)

    @given(ops=ops, qs=queries)
    @settings(max_examples=100, deadline=None)
    def test_lookup_tiles_request_exactly(self, ops, qs):
        emap, _ = build_maps(ops)
        for lba, length in qs:
            segments = emap.lookup(lba, length)
            assert segments[0].lba == lba
            assert segments[-1].lba + segments[-1].length == lba + length
            for a, b in zip(segments, segments[1:]):
                assert a.lba + a.length == b.lba
                # Canonical: no two neighbours a lookup would have to merge.
                assert (a.pba is None) != (b.pba is None) or (
                    a.pba is not None and a.pba + a.length != b.pba)

    @given(ops=ops)
    @settings(max_examples=100, deadline=None)
    def test_last_write_wins(self, ops):
        emap, _ = build_maps(ops)
        # For every sector, the mapping must reflect the latest write
        # covering it.
        latest = {}
        for lba, length, pba in ops:
            for offset in range(length):
                latest[lba + offset] = pba + offset
        for sector, expected_pba in latest.items():
            [segment] = emap.lookup(sector, 1)
            assert segment.pba == expected_pba
