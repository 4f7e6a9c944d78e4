"""ArrayExtentMap write path: hull-restricted merge, direct run ingestion.

Three kinds of check, none of them a wall-clock assert:

* ``map_range_batch`` ≡ per-row ``ExtentMap.map_range`` whichever route a
  run takes (small flush thresholds make short generated runs merge into
  the base directly, a large one keeps them in the overlay), including
  which row raises, with what text, and the state left behind;
* after every merge into the base, ``extent_arrays()`` is canonical:
  sorted, disjoint and merge-maximal;
* the work counters: a flush costs its hull, steady state reallocates
  nothing, and the uniformly random adversary merges into the base no
  more often than the same writes made one by one would.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.extent_map import ExtentMap
from repro.util.cells import cells, unique

ADDRESS_SPACE = 160
I8 = np.int64


def assert_canonical(amap):
    """The exported rows are sorted, disjoint and merge-maximal."""
    lba, pba, length = amap.extent_arrays()
    end = lba + length
    assert (length > 0).all()
    assert (lba[1:] >= end[:-1]).all()
    mergeable = (lba[1:] == end[:-1]) & (pba[1:] == pba[:-1] + length[:-1])
    assert not mergeable.any()


def checked(write):
    """``write``, then the canonical check whenever it merged into the base
    (which leaves the overlay empty, so the export flushes nothing)."""
    def run(amap, *args):
        merges = amap.flush_count
        try:
            write(amap, *args)
        finally:
            if amap.flush_count != merges:
                assert_canonical(amap)
    return run


class CheckedMap(ArrayExtentMap):
    """Asserts canonical form after every flush and every run ingest."""

    map_range = checked(ArrayExtentMap.map_range)
    map_range_batch = checked(ArrayExtentMap.map_range_batch)
    flush = checked(ArrayExtentMap.flush)


def columns(rows):
    """``(lba, length, pba)`` tuples → the three batch arguments."""
    return tuple(np.array([r[k] for r in rows], dtype=I8) for k in (0, 2, 1))


def assert_same_mapping(amap, oracle, queries=()):
    for lba, length in queries:  # before extent_arrays() flushes the overlay
        assert amap.lookup_pieces(lba, length) == oracle.lookup_pieces(lba, length)
    for ours, theirs in zip(amap.extent_arrays(), oracle.extent_arrays()):
        assert np.array_equal(ours, theirs)


# Small lengths and pbas drawn near ``lba`` make overlap, duplicates,
# abutting rows and physical contiguity all common.
write_row = st.tuples(
    st.integers(0, ADDRESS_SPACE - 1),
    st.integers(1, 20),
    st.one_of(st.integers(0, 400), st.integers(0, ADDRESS_SPACE).map(lambda x: 1000 + x)),
)
contiguous_row = st.integers(0, ADDRESS_SPACE - 1).flatmap(
    lambda lba: st.tuples(st.just(lba), st.integers(1, 20), st.just(1000 + lba))
)
rows = st.lists(st.one_of(write_row, contiguous_row), min_size=0, max_size=30)
queries = st.lists(
    st.tuples(st.integers(0, ADDRESS_SPACE - 1), st.integers(1, 48)), max_size=12
)
thresholds = st.sampled_from([1, 3, 7, 4096])


def build_pair(base_rows, overlay_rows, threshold):
    """A map with a populated base *and* a non-empty overlay, plus its oracle."""
    amap, oracle = CheckedMap(flush_threshold=threshold), ExtentMap()
    for lba, length, pba in base_rows:
        amap.map_range(lba, pba, length)
        oracle.map_range(lba, pba, length)
    amap.flush()
    for lba, length, pba in overlay_rows:
        amap.map_range(lba, pba, length)
        oracle.map_range(lba, pba, length)
    return amap, oracle


class TestRunIngestionEquivalence:
    @given(base=rows, overlay=rows, runs=st.lists(rows, min_size=1, max_size=4),
           asked=queries, threshold=thresholds)
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_per_row_oracle(self, base, overlay, runs, asked, threshold):
        amap, oracle = build_pair(base, overlay, threshold)
        for run in runs:
            amap.map_range_batch(*columns(run))
            for lba, length, pba in run:
                oracle.map_range(lba, pba, length)
            assert_same_mapping(amap, oracle, asked[:3])
        assert_same_mapping(amap, oracle, asked)
        assert amap.mapped_sector_count() == oracle.mapped_sector_count()

    @given(base=rows, overlay=rows, run=rows.filter(len), asked=queries, threshold=thresholds,
           where=st.integers(0, 10**6),
           bad=st.sampled_from([("length", 0), ("length", -3), ("lba", -1), ("pba", -2)]))
    @settings(max_examples=200, deadline=None)
    def test_invalid_row_same_error_same_state(self, base, overlay, run, asked, threshold, where,
                                               bad):
        at = where % len(run)
        lba, length, pba = run[at]
        field, value = bad
        run[at] = {"lba": (value, length, pba), "length": (lba, value, pba),
                   "pba": (lba, length, value)}[field]
        amap, oracle = build_pair(base, overlay, threshold)
        with pytest.raises(ValueError) as expected:
            for lba, length, pba in run:
                oracle.map_range(lba, pba, length)
        with pytest.raises(ValueError) as raised:
            amap.map_range_batch(*columns(run))
        assert str(raised.value) == str(expected.value)
        assert_same_mapping(amap, oracle, asked)

    @given(run=rows.filter(len), threshold=thresholds)
    @settings(max_examples=100, deadline=None)
    def test_cutoffs_are_unobservable(self, run, threshold):
        # A run merges into the base directly once it would fill the overlay.
        plain, routed = ArrayExtentMap(), CheckedMap(flush_threshold=threshold)
        plain.map_range_batch(*columns(run))
        routed.map_range_batch(*columns(run))
        assert_same_mapping(routed, plain)


class TestSpliceBoundaries:
    def test_overlay_abutting_and_contiguous_coalesces_across_both_ends(self):
        amap = CheckedMap()
        for row in [(0, 100, 10), (30, 500, 10), (60, 900, 5), (80, 950, 5)]:
            amap.map_range(*row)
        amap.flush()
        amap.map_range(10, 110, 10)  # continues [0,10)->100 physically
        amap.map_range(20, 490, 10)  # runs into [30,40)->500 physically
        amap.flush()
        assert list(zip(*(c.tolist() for c in amap.extent_arrays()))) == [
            (0, 100, 20), (20, 490, 20), (60, 900, 5), (80, 950, 5)
        ]

    def test_direct_run_coalesces_with_neighbours(self):
        amap = CheckedMap(flush_threshold=1)
        amap.map_range(0, 100, 10)
        amap.map_range(40, 140, 10)
        amap.flush()
        merges = amap.counters()["run_merges"]
        amap.map_range_batch(*columns([(10, 10, 110), (20, 10, 120), (30, 10, 130)]))
        assert amap.counters()["run_merges"] == merges + 1
        assert list(zip(*(c.tolist() for c in amap.extent_arrays()))) == [(0, 100, 50)]

    def test_splice_mid_map_moves_the_tail(self):
        lba = np.arange(200, dtype=I8) * 10
        amap = CheckedMap.from_extent_arrays(lba, lba + 5000, np.full(200, 4, dtype=I8))
        amap.map_range(995, 9000, 30)  # swallows rows mid-map: the tail moves down
        amap.flush()
        amap.map_range(500, 9100, 1)   # splits a row: the tail moves up
        amap.flush()
        assert amap.counters()["rows_moved"] > 0
        pba, length, hole, offsets = amap.lookup_pieces_batch(
            np.array([0, 980, 1500], dtype=I8), np.array([2000, 60, 100], dtype=I8)
        )
        for i, (q_lba, q_len) in enumerate([(0, 2000), (980, 60), (1500, 100)]):
            got = list(zip(*(c[offsets[i]:offsets[i + 1]].tolist() for c in (pba, length, hole))))
            assert got == amap.lookup_pieces(q_lba, q_len)


def striped_map(n_rows):
    """``n_rows`` 8-sector extents with holes between and scattered pbas
    (nothing coalesces)."""
    lba = np.arange(n_rows, dtype=I8) * 16
    pba = np.random.default_rng(5).permutation(n_rows).astype(I8) * 64 + 10**9
    return ArrayExtentMap.from_extent_arrays(lba, pba, np.full(n_rows, 8, dtype=I8))


class TestWorkCounters:
    def test_counters_read_without_flushing(self):
        amap = striped_map(100)  # restored through the overlay and one flush
        amap.map_range(3, 7, 2)
        assert amap.counters() == {
            "base_rows": 100, "overlay_rows": 1, "flush_count": 1, "realloc_count": 1,
            "rows_merged": 0, "rows_moved": 0, "run_merges": 0,
        }

    def test_flush_costs_the_hull_not_the_map(self):
        n_rows = 50_000
        amap = striped_map(n_rows)
        first = n_rows - n_rows // 100  # overlay confined to the top 1 %
        for i, row in enumerate(range(first, n_rows, 7)):
            amap.map_range(row * 16 + 2, 10**6 + i * 50, 4)
        hull = n_rows - first
        amap.flush()
        counters = amap.counters()
        assert counters["rows_merged"] <= hull + 2
        assert counters["rows_moved"] < 7 and amap.realloc_count == 1  # split rows grew in place

    def test_long_runs_at_steady_state_do_not_reallocate(self):
        amap, rng, length = striped_map(20_000), np.random.default_rng(11), np.full(1000, 8)

        def rewrite(batch):  # whole rows of one 4000-row region: size plateaus
            lba = (4000 + rng.permutation(4000)[:1000]) * 16
            amap.map_range_batch(lba, 10**7 + batch * 8000 + np.arange(1000) * 8, length)
            amap.flush()

        rewrite(0)
        before = amap.counters()
        for batch in range(1, 9):
            rewrite(batch)
        after = amap.counters()
        assert after["flush_count"] == before["flush_count"] + 8
        assert (after["realloc_count"], after["base_rows"]) == (before["realloc_count"],
                                                                before["base_rows"])

    def test_uniform_random_batches_merge_no_more_than_per_row(self):
        """The bad case for a merge per batch: 1000-write batches scattered
        over the whole of a big map settle in the overlay, so the base is
        merged once per ``flush_threshold`` rows, not once per batch."""
        n_rows, batches = 300_000, 6

        def rows_merged(per_row):
            amap, rng, length = striped_map(n_rows), np.random.default_rng(3), [8] * 1000
            for b in range(batches):
                lba = rng.integers(0, n_rows * 16 - 8, size=1000).tolist()
                pba = list(range(10**12 + b * 8000, 10**12 + b * 8000 + 8000, 8))
                if per_row:
                    for row in zip(lba, pba, length):
                        amap.map_range(*row)
                else:
                    amap.map_range_batch(lba, pba, length)
            amap.flush()
            return amap.counters()["rows_merged"], amap.flush_count, amap.mapped_extent_count()

        batched, flushes, final_rows = rows_merged(per_row=False)
        _, per_row_flushes, _ = rows_merged(per_row=True)
        assert flushes <= per_row_flushes == 1 + batches * 1000 // 4096 + 1
        # ... nor more rows than a whole-map flush per merge.
        assert batched <= flushes * final_rows


_int64s = st.one_of(st.integers(-40, 40), st.sampled_from([2**62 - 1, 2**62, -(2**62)]))


@given(st.lists(_int64s, max_size=60))
@example([])
@example([9] * 12)
@settings(max_examples=200, deadline=None)
def test_sort_based_unique_equals_numpy(values):
    values = np.array(values, dtype=I8)
    assert unique(values).dtype == I8 and np.array_equal(unique(values), np.unique(values))


def test_write_path_never_takes_the_hashing_unique():
    """numpy 2.x answers a bare ``np.unique`` from a hash table, 17x slower:
    the range cells sort instead, and the map's write path has no numpy."""
    lba, length = np.random.default_rng(5).integers(1, 1 << 16, (2, 4096))
    with mock.patch.object(np, "unique", side_effect=AssertionError):
        cells(lba, lba + length)
        ArrayExtentMap().map_range_batch(lba, lba + (1 << 20), length)
