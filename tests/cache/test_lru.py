"""Block-granular LRU cache tests."""

import pytest

from repro.cache.lru import LRUCache


def make_cache(capacity_blocks=4):
    return LRUCache(capacity_bytes=capacity_blocks * 8 * 512)  # 4 KiB blocks


class TestBasics:
    def test_empty_miss(self):
        cache = make_cache()
        assert not cache.contains_range(0, 8)

    def test_insert_then_hit(self):
        cache = make_cache()
        cache.insert_range(0, 8)
        assert cache.contains_range(0, 8)

    def test_partial_residency_is_miss(self):
        cache = make_cache()
        cache.insert_range(0, 8)   # block 0 only
        assert not cache.contains_range(0, 16)  # needs blocks 0 and 1

    def test_sub_range_hit(self):
        cache = make_cache()
        cache.insert_range(0, 16)
        assert cache.contains_range(4, 4)

    def test_unaligned_range_covers_both_blocks(self):
        cache = make_cache()
        cache.insert_range(4, 8)   # spans blocks 0 and 1
        assert cache.used_blocks == 2

    def test_capacity_accounting(self):
        cache = make_cache(capacity_blocks=4)
        assert cache.capacity_blocks == 4
        assert cache.capacity_bytes == 4 * 8 * 512
        cache.insert_range(0, 8)
        assert cache.used_blocks == 1


class TestEviction:
    def test_lru_eviction_order(self):
        cache = make_cache(capacity_blocks=2)
        cache.insert_range(0, 8)    # block 0
        cache.insert_range(8, 8)    # block 1
        cache.insert_range(16, 8)   # block 2 -> evicts block 0
        assert not cache.contains_range(0, 8)
        assert cache.contains_range(8, 8)
        assert cache.evictions == 1

    def test_touch_refreshes_recency(self):
        cache = make_cache(capacity_blocks=2)
        cache.insert_range(0, 8)
        cache.insert_range(8, 8)
        cache.touch_range(0, 8)     # block 0 now MRU
        cache.insert_range(16, 8)   # evicts block 1
        assert cache.contains_range(0, 8)
        assert not cache.contains_range(8, 8)

    def test_reinsert_refreshes(self):
        cache = make_cache(capacity_blocks=2)
        cache.insert_range(0, 8)
        cache.insert_range(8, 8)
        cache.insert_range(0, 8)
        cache.insert_range(16, 8)
        assert cache.contains_range(0, 8)

    def test_never_exceeds_capacity(self):
        cache = make_cache(capacity_blocks=3)
        for i in range(20):
            cache.insert_range(i * 8, 8)
            assert cache.used_blocks <= 3


class TestInvalidate:
    def test_invalidate_range(self):
        cache = make_cache()
        cache.insert_range(0, 16)
        cache.invalidate_range(0, 8)
        assert not cache.contains_range(0, 16)
        assert cache.contains_range(8, 8)

    def test_invalidate_absent_is_noop(self):
        cache = make_cache()
        cache.invalidate_range(100, 8)
        assert len(cache) == 0

    def test_clear(self):
        cache = make_cache()
        cache.insert_range(0, 32)
        cache.clear()
        assert len(cache) == 0


class TestValidation:
    def test_capacity_below_one_block(self):
        with pytest.raises(ValueError):
            LRUCache(capacity_bytes=100)

    def test_bad_range(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.contains_range(0, 0)
        with pytest.raises(ValueError):
            cache.insert_range(-1, 8)

    def test_iteration_order_lru_first(self):
        cache = make_cache()
        cache.insert_range(0, 8)
        cache.insert_range(8, 8)
        cache.touch_range(0, 8)
        assert list(cache) == [1, 0]
