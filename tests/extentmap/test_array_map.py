"""ArrayExtentMap behavioural tests (overlay/flush model, batch entry
points, canonical export/import, steady-state allocation tripwire)."""

import copy
import pickle

import numpy as np
import pytest

from repro.extentmap.array_map import ArrayExtentMap, DEFAULT_FLUSH_THRESHOLD
from repro.extentmap.base import Segment
from repro.extentmap.extent_map import ExtentMap


def _triples(mapping):
    return list(zip(*(column.tolist() for column in mapping.extent_arrays())))


@pytest.fixture
def amap():
    return ArrayExtentMap()


class TestScalarInterface:
    def test_unmapped_is_single_hole(self, amap):
        assert amap.lookup(0, 10) == [Segment(0, None, 10)]

    def test_simple_map(self, amap):
        amap.map_range(10, 1000, 5)
        assert amap.lookup(10, 5) == [Segment(10, 1000, 5)]

    def test_middle_split_overwrite(self, amap):
        amap.map_range(0, 100, 10)
        amap.map_range(3, 200, 4)
        assert amap.lookup(0, 10) == [
            Segment(0, 100, 3),
            Segment(3, 200, 4),
            Segment(7, 107, 3),
        ]
        assert amap.mapped_extent_count() == 3

    def test_adjacent_extents_merge(self, amap):
        amap.map_range(0, 100, 5)
        amap.map_range(5, 105, 5)
        amap.flush()
        assert amap.mapped_extent_count() == 1
        assert amap.lookup(0, 10) == [Segment(0, 100, 10)]

    def test_invalid_arguments(self, amap):
        with pytest.raises(ValueError):
            amap.map_range(0, 0, 0)
        with pytest.raises(ValueError):
            amap.map_range(-1, 0, 1)
        with pytest.raises(ValueError):
            amap.lookup(0, 0)
        with pytest.raises(ValueError):
            amap.lookup_pieces(0, -3)


class TestFlushModel:
    def test_flush_is_semantically_invisible(self):
        eager = ArrayExtentMap(flush_threshold=2)
        lazy = ArrayExtentMap(flush_threshold=10_000)
        for i in range(64):
            lba = (i * 7) % 40
            eager.map_range(lba, 1000 + i * 10, 3)
            lazy.map_range(lba, 1000 + i * 10, 3)
        assert eager.flush_count > 0
        assert _triples(eager) == _triples(lazy)

    def test_explicit_flush_drains_overlay(self, amap):
        amap.map_range(0, 100, 10)
        amap.flush()
        flushes = amap.flush_count
        amap.flush()  # empty overlay: no work, no counter bump
        assert amap.flush_count == flushes

    def test_threshold_triggers_flush(self):
        amap = ArrayExtentMap(flush_threshold=4)
        for i in range(16):
            amap.map_range(i * 10, 5000 + i, 1)  # disjoint: overlay grows
        assert amap.flush_count >= 1

    def test_default_threshold(self, amap):
        assert DEFAULT_FLUSH_THRESHOLD == 4096


class TestBatchEntryPoints:
    def test_map_range_batch_equals_scalar_loop(self):
        rows = [(0, 100, 10), (3, 200, 4), (20, 300, 8), (22, 400, 2)]
        batch = ArrayExtentMap()
        batch.map_range_batch(*np.array(rows).T)
        scalar = ArrayExtentMap()
        for lba, pba, length in rows:
            scalar.map_range(lba, pba, length)
        assert _triples(batch) == _triples(scalar)

    def test_lookup_pieces_batch_equals_scalar(self, amap):
        amap.map_range(0, 100, 10)
        amap.map_range(3, 200, 4)
        queries = [(0, 10), (5, 2), (8, 6), (50, 3)]
        pba, length, hole, offsets = amap.lookup_pieces_batch(*np.array(queries).T)
        assert offsets[0] == 0 and offsets[-1] == len(pba)
        for i, (qlba, qlen) in enumerate(queries):
            rows = slice(offsets[i], offsets[i + 1])
            got = list(zip(pba[rows].tolist(), length[rows].tolist(), hole[rows].tolist()))
            assert got == amap.lookup_pieces(qlba, qlen), (qlba, qlen)

    def test_lookup_pieces_batch_empty(self, amap):
        pba, length, hole, offsets = amap.lookup_pieces_batch(np.empty(0), np.empty(0))
        assert len(pba) == len(length) == len(hole) == 0
        assert offsets.tolist() == [0]

    def test_lookup_pieces_batch_rejects_bad_length(self, amap):
        with pytest.raises(ValueError):
            amap.lookup_pieces_batch(np.array([0, 5]), np.array([4, 0]))

    def test_unequal_columns_raise_and_apply_nothing(self, amap):
        with pytest.raises(ValueError, match="columns differ in length"):
            amap.map_range_batch([0, 8], [100], [8, 8])
        with pytest.raises(ValueError, match="columns differ in length"):
            amap.lookup_pieces_batch([0, 4, 8], [4])
        assert amap.mapped_extent_count() == 0

    def test_addresses_past_two_to_the_31_survive(self):
        big = 2**31 + 5
        rows = [(big, 3 * big, 2**20), (big + 8, 2**40, 8), (2**33, 2**34, 16)]
        oracle, batch = ExtentMap(), ArrayExtentMap()
        for row in rows:
            oracle.map_range(*row)
        batch.map_range_batch(*zip(*rows))
        for lba, length in [(big - 4, 32), (2**33 - 1, 20)]:
            assert batch.lookup_pieces(lba, length) == oracle.lookup_pieces(lba, length)
        assert _triples(batch) == _triples(oracle)


class TestExtentArrays:
    def _populate(self, target):
        for i in range(50):
            target.map_range((i * 13) % 70, 2000 + i * 10, 1 + (i % 5))
        return target

    def test_exports_match_extent_map(self):
        amap = self._populate(ArrayExtentMap())
        emap = self._populate(ExtentMap())
        for ours, oracle in zip(amap.extent_arrays(), emap.extent_arrays()):
            assert np.array_equal(np.asarray(ours), np.asarray(oracle))

    def test_round_trip_both_classes(self):
        amap = self._populate(ArrayExtentMap())
        arrays = amap.extent_arrays()
        for cls in (ArrayExtentMap, ExtentMap):
            rebuilt = cls.from_extent_arrays(*arrays)
            assert _triples(rebuilt) == _triples(amap)
        for twin in (copy.copy(amap), pickle.loads(pickle.dumps(amap))):
            assert _triples(twin) == _triples(amap)
            twin.map_range(0, 0, 1)  # the twin's own levels: amap does not see it
            assert _triples(twin) != _triples(amap)

    @pytest.mark.parametrize("cls", [ArrayExtentMap, ExtentMap])
    def test_from_extent_arrays_accepts_lists(self, cls):
        rebuilt = cls.from_extent_arrays([0, 10], [100, 200], [5, 5])
        assert _triples(rebuilt) == [(0, 100, 5), (10, 200, 5)]
        assert rebuilt.lookup(3, 9) == [
            Segment(3, 103, 2), Segment(5, None, 5), Segment(10, 200, 2)
        ]

    @pytest.mark.parametrize("cls", [ArrayExtentMap, ExtentMap])
    def test_from_extent_arrays_rejects_nonpositive_length(self, cls):
        with pytest.raises(ValueError):
            cls.from_extent_arrays([0, 10], [100, 200], [5, 0])

    @pytest.mark.parametrize("cls", [ArrayExtentMap, ExtentMap])
    def test_from_extent_arrays_rejects_overlap(self, cls):
        with pytest.raises(ValueError):
            cls.from_extent_arrays([0, 3], [100, 200], [5, 2])


class TestSteadyStateAllocation:
    def test_no_per_flush_realloc_at_steady_state(self):
        """Perf tripwire: once the base arrays have grown to the map's
        working size, further overwrite/flush cycles must reuse them —
        a realloc per flush would silently reintroduce the per-call
        allocation cost the two-level design exists to amortize."""
        amap = ArrayExtentMap(flush_threshold=256)
        rng = np.random.default_rng(7)
        lbas = rng.integers(0, 20_000, size=20_000)
        for i, lba in enumerate(lbas.tolist()):
            amap.map_range(lba, 1_000_000 + i * 8, 8)
        flushes_before = amap.flush_count
        reallocs_before = amap.realloc_count
        # Same address space: the map no longer grows, so flushes recycle.
        for i, lba in enumerate(lbas[:4096].tolist()):
            amap.map_range(lba, 9_000_000 + i * 8, 8)
        amap.flush()
        assert amap.flush_count > flushes_before
        assert amap.realloc_count == reallocs_before

    def test_growth_through_several_reallocations_keeps_every_row(self):
        amap, rows = ArrayExtentMap(flush_threshold=64), 10_000
        lba = np.random.default_rng(2).permutation(rows).astype(np.int64) * 16
        for run in np.split(lba, 20):  # disjoint rows: the map only grows
            amap.map_range_batch(run, run + 7, np.full(len(run), 8))
        assert amap.realloc_count >= 4  # 1024 rows, then doubling to 16384
        lba_out, pba_out, length_out = amap.extent_arrays()
        assert (lba_out == np.sort(lba)).all() and (pba_out == lba_out + 7).all()
        assert (length_out == 8).all()
