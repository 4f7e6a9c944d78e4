"""Prefetch-window FIFO buffer tests."""

import pytest

from repro.cache.prefetch_buffer import PrefetchBuffer


class TestCoverage:
    def test_empty_covers_nothing(self):
        buf = PrefetchBuffer(1000)
        assert not buf.covers(0, 1)

    def test_window_covers_contained_range(self):
        buf = PrefetchBuffer(1000)
        buf.add_window(100, 200)
        assert buf.covers(100, 100)
        assert buf.covers(150, 10)
        assert not buf.covers(99, 2)
        assert not buf.covers(195, 10)

    def test_range_spanning_two_windows_not_covered(self):
        buf = PrefetchBuffer(1000)
        buf.add_window(0, 100)
        buf.add_window(100, 200)
        assert not buf.covers(50, 100)  # single-window containment required

    def test_negative_start_clamped(self):
        buf = PrefetchBuffer(1000)
        buf.add_window(-50, 100)
        assert buf.covers(0, 100)


class TestFifoEviction:
    def test_oldest_window_evicted(self):
        buf = PrefetchBuffer(200)
        buf.add_window(0, 100)
        buf.add_window(1000, 1100)
        buf.add_window(2000, 2100)  # exceeds 200: evicts [0,100)
        assert not buf.covers(0, 100)
        assert buf.covers(1000, 100)
        assert buf.covers(2000, 100)

    def test_used_sectors_accounting(self):
        buf = PrefetchBuffer(500)
        buf.add_window(0, 100)
        buf.add_window(200, 300)
        assert buf.used_sectors == 200
        assert buf.windows() == [(0, 100), (200, 300)]

    def test_oversized_window_truncated_to_tail(self):
        buf = PrefetchBuffer(100)
        buf.add_window(0, 1000)
        assert buf.covers(900, 100)
        assert not buf.covers(0, 100)
        assert buf.used_sectors == 100


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            PrefetchBuffer(0)

    def test_empty_window(self):
        buf = PrefetchBuffer(100)
        with pytest.raises(ValueError):
            buf.add_window(10, 10)

    def test_bad_covers_args(self):
        buf = PrefetchBuffer(100)
        with pytest.raises(ValueError):
            buf.covers(0, 0)
