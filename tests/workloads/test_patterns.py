"""Access-pattern primitive tests."""

import random

import pytest

from repro.workloads import patterns
from repro.workloads.patterns import (BLOCK_SECTORS, ClusteredOverwritePattern, MisorderedPattern,
                                      RandomAccessPattern, ReplayReadPattern, SequentialPattern,
                                      WrittenExtentLog, ZipfRereadPattern, sample_size)


def rng():
    return random.Random(7)


class TestSampleSize:
    def test_block_aligned(self):
        for _ in range(50):
            assert sample_size(rng(), 32.0) % BLOCK_SECTORS == 0

    def test_bounds(self):
        r = rng()
        sizes = [sample_size(r, 32.0) for _ in range(500)]
        assert min(sizes) >= BLOCK_SECTORS
        assert max(sizes) <= 2048  # 1 MiB cap

    def test_mean_roughly_respected(self):
        r = rng()
        sizes = [sample_size(r, 64.0) for _ in range(3000)]
        mean_kib = sum(sizes) / len(sizes) / 2
        assert 40 < mean_kib < 90

    def test_bulk_tail(self):
        r = rng()
        sizes = [sample_size(r, 16.0, cap_kib=4096.0, bulk_p=0.5) for _ in range(300)]
        assert max(sizes) > 2048  # bulk reads exceed the 1 MiB write cap


class TestRandomAccessPattern:
    def test_stays_in_region(self):
        pattern = RandomAccessPattern(rng(), 1000, 5000, 16.0)
        for _ in range(300):
            lba, length = pattern.emit()
            assert 1000 <= lba and lba + length <= 6000 + 2048

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            RandomAccessPattern(rng(), 0, 0, 16.0)


class TestSequentialPattern:
    def test_ascending_and_wrapping(self):
        pattern = SequentialPattern(0, 100, 8.0)  # 16-sector reads
        spans = [pattern.emit() for _ in range(7)]
        assert [s[0] for s in spans[:6]] == [0, 16, 32, 48, 64, 80]
        assert spans[6][0] == 0  # wrapped
        assert pattern.wraps == 1

    def test_fixed_size(self):
        pattern = SequentialPattern(0, 10_000, 8.0)
        assert len({s[1] for s in (pattern.emit() for _ in range(20))}) == 1


class TestMisorderedPattern:
    def test_groups_locally_reversed(self):
        pattern = MisorderedPattern(0, 10_000, 8.0)  # chunks of 4
        spans = [pattern.emit() for _ in range(8)]
        lbas = [s[0] for s in spans]
        # First chunk descending, second chunk descending, chunks ascending.
        assert lbas[0] > lbas[1] > lbas[2] > lbas[3]
        assert lbas[4] > lbas[5] > lbas[6] > lbas[7]
        assert lbas[4] > lbas[0]

    def test_union_is_sequential(self):
        pattern = MisorderedPattern(0, 10_000, 8.0)
        spans = sorted(pattern.emit() for _ in range(8))
        cursor = 0
        for lba, length in spans:
            assert lba == cursor
            cursor += length


class TestClusteredOverwritePattern:
    def test_cluster_locality(self):
        pattern = ClusteredOverwritePattern(rng(), 0, 1_000_000, 8.0, cluster=8, span_sectors=1024)
        spans = [pattern.emit() for _ in range(8)]
        lbas = [s[0] for s in spans]
        assert max(lbas) - min(lbas) <= 1024

    def test_new_anchor_per_cluster(self):
        pattern = ClusteredOverwritePattern(rng(), 0, 10_000_000, 8.0, cluster=2, span_sectors=64)
        first = [pattern.emit() for _ in range(2)]
        second = [pattern.emit() for _ in range(2)]
        assert abs(first[0][0] - second[0][0]) > 64  # overwhelmingly likely

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredOverwritePattern(rng(), 0, 100, 8.0, cluster=0)
        with pytest.raises(ValueError):
            ClusteredOverwritePattern(rng(), 0, 100, 8.0, span_sectors=0)


class TestWrittenExtentLog:
    def test_recent_bounded(self, monkeypatch):
        monkeypatch.setattr(patterns, "RECENT_MAX", 2)
        log = WrittenExtentLog(hot_targets_max=10)
        for i in range(5):
            log.note_write(i * 8, 8, in_hot=False)
        assert len(log.recent) == 2

    def test_hot_targets_bounded_and_stable(self):
        log = WrittenExtentLog(hot_targets_max=3)
        for i in range(10):
            log.note_write(i * 8, 8, in_hot=True)
        assert log.hot_targets == [(0, 8), (8, 8), (16, 8)]

    def test_cold_writes_not_targets(self):
        log = WrittenExtentLog()
        log.note_write(0, 8, in_hot=False)
        assert log.hot_targets == []

    def test_validation(self):
        with pytest.raises(ValueError):
            WrittenExtentLog(hot_targets_max=0)


class TestZipfRereadPattern:
    def test_none_before_any_writes(self):
        pattern = ZipfRereadPattern(rng(), WrittenExtentLog(), alpha=1.0)
        assert pattern.emit() is None

    def test_skewed_selection(self):
        log = WrittenExtentLog()
        for i in range(100):
            log.note_write(i * 8, 8, in_hot=True)
        pattern = ZipfRereadPattern(rng(), log, alpha=1.5)
        picks = [pattern.emit() for _ in range(2000)]
        top = sum(1 for p in picks if p == (0, 8))
        bottom = sum(1 for p in picks if p == (99 * 8, 8))
        assert top > 5 * max(1, bottom)


class TestReplayReadPattern:
    def test_replays_in_write_order(self):
        log = WrittenExtentLog()
        writes = [(100, 8), (0, 8), (50, 8)]
        for lba, length in writes:
            log.note_write(lba, length, in_hot=False)
        pattern = ReplayReadPattern(log)
        assert [pattern.emit() for _ in range(3)] == writes

    def test_none_when_empty(self):
        assert ReplayReadPattern(WrittenExtentLog()).emit() is None
