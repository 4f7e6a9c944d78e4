"""Property tests: ArrayExtentMap must agree with the ExtentMap oracle.

ExtentMap is the pure-Python differential oracle (itself proven against
the per-sector BlockMap specification in ``tests/property``); the
compiled two-level ArrayExtentMap is the kernel tier.  Any op soup that
makes them diverge — on scalar lookups, batch lookups, canonical exports,
or across different flush thresholds — is a bug in the run net, the
level merge and splice, or the compose of overlay over base.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.extent_map import ExtentMap

ADDRESS_SPACE = 192

write_soup = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),  # lba
        st.integers(min_value=1, max_value=24),                 # length
        st.integers(min_value=0, max_value=50_000),             # pba
    ),
    min_size=0,
    max_size=60,
)

query_soup = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
        st.integers(min_value=1, max_value=48),
    ),
    min_size=1,
    max_size=40,
)

#: Thresholds bracketing "flush every write" through "never auto-flush".
thresholds = st.sampled_from([1, 2, 3, 7, 4096])


def _build(writes, threshold):
    amap = ArrayExtentMap(flush_threshold=threshold)
    oracle = ExtentMap()
    for lba, length, pba in writes:
        amap.map_range(lba, pba, length)
        oracle.map_range(lba, pba, length)
    return amap, oracle


class TestScalarEquivalence:
    @given(writes=write_soup, queries=query_soup, threshold=thresholds)
    @settings(max_examples=200, deadline=None)
    def test_lookup_pieces_matches_oracle(self, writes, queries, threshold):
        amap, oracle = _build(writes, threshold)
        for lba, length in queries:
            assert amap.lookup_pieces(lba, length) == oracle.lookup_pieces(
                lba, length
            )

    @given(writes=write_soup, queries=query_soup, threshold=thresholds)
    @settings(max_examples=150, deadline=None)
    def test_lookup_matches_oracle(self, writes, queries, threshold):
        amap, oracle = _build(writes, threshold)
        for lba, length in queries:
            assert amap.lookup(lba, length) == oracle.lookup(lba, length)

    @given(writes=write_soup, threshold=thresholds)
    @settings(max_examples=150, deadline=None)
    def test_counters_match_oracle(self, writes, threshold):
        amap, oracle = _build(writes, threshold)
        assert amap.mapped_sector_count() == oracle.mapped_sector_count()
        assert amap.mapped_extent_count() == oracle.mapped_extent_count()

    @given(writes=write_soup, threshold=thresholds)
    @settings(max_examples=150, deadline=None)
    def test_extent_arrays_match_oracle(self, writes, threshold):
        amap, oracle = _build(writes, threshold)
        for ours, theirs in zip(amap.extent_arrays(), oracle.extent_arrays()):
            assert np.array_equal(np.asarray(ours), np.asarray(theirs))


class TestBatchEquivalence:
    @given(writes=write_soup, queries=query_soup, threshold=thresholds)
    @settings(max_examples=200, deadline=None)
    def test_lookup_pieces_batch_matches_scalar(self, writes, queries, threshold):
        """The batch resolve — the overlay composed over the base in one
        compiled loop — must equal per-query scalar lookups."""
        amap, oracle = _build(writes, threshold)
        pba, piece_len, hole, offsets = amap.lookup_pieces_batch(*np.array(queries).T)
        assert offsets[0] == 0 and offsets[-1] == len(pba)
        for i, (qlba, qlen) in enumerate(queries):
            rows = slice(offsets[i], offsets[i + 1])
            got = list(zip(pba[rows].tolist(), piece_len[rows].tolist(), hole[rows].tolist()))
            assert got == oracle.lookup_pieces(qlba, qlen), (qlba, qlen)

    @given(writes=write_soup, threshold=thresholds)
    @settings(max_examples=150, deadline=None)
    def test_map_range_batch_matches_scalar_writes(self, writes, threshold):
        if not writes:
            return
        batch = ArrayExtentMap(flush_threshold=threshold)
        batch.map_range_batch(*np.array(writes)[:, [0, 2, 1]].T)
        _, oracle = _build(writes, threshold)
        for ours, theirs in zip(batch.extent_arrays(), oracle.extent_arrays()):
            assert np.array_equal(np.asarray(ours), np.asarray(theirs))


class TestFlushInvariance:
    @given(writes=write_soup, queries=query_soup)
    @settings(max_examples=150, deadline=None)
    def test_threshold_is_unobservable(self, writes, queries):
        """Results must be identical whatever the flush cadence — the
        overlay/base split is an implementation detail."""
        eager, _ = _build(writes, 1)
        lazy, _ = _build(writes, 4096)
        lazy_interleaved = ArrayExtentMap(flush_threshold=4096)
        for i, (lba, length, pba) in enumerate(writes):
            lazy_interleaved.map_range(lba, pba, length)
            if i % 5 == 0:
                lazy_interleaved.flush()
        for candidate in (lazy, lazy_interleaved):
            for lba, length in queries:
                assert candidate.lookup_pieces(lba, length) == eager.lookup_pieces(
                    lba, length
                )
        for ours, theirs in zip(eager.extent_arrays(), lazy.extent_arrays()):
            assert np.array_equal(np.asarray(ours), np.asarray(theirs))
