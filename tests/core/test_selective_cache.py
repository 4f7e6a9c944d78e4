"""Translation-aware selective caching tests (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest
from repro.util.units import BYTES_PER_MIB


def small_cache(capacity_mib=0.0625):  # 64 KiB: eviction triggers quickly
    return SelectiveFragmentCache(SelectiveCacheConfig(capacity_mib=capacity_mib))


def make_cache(capacity_blocks=4):  # 4 KiB blocks
    return small_cache(capacity_blocks * 8 * 512 / BYTES_PER_MIB)


def admitted(*ranges, capacity_blocks=4):
    """A cache after admitting each ``(pba, length)`` range in turn."""
    cache = make_cache(capacity_blocks)
    for pba, length in ranges:
        cache.admit(pba, length)
    return cache


def blocks(cache):
    """Resident blocks, least recently used first."""
    return cache.state_dict()["blocks"].tolist()


class TestConfig:
    def test_paper_default_is_64mb(self):
        assert SelectiveCacheConfig().capacity_mib == 64.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            SelectiveCacheConfig(capacity_mib=0)


class TestHitMissAccounting:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0, 8)
        cache.admit(0, 8)
        assert cache.lookup(0, 8)
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_blocks(self):
        cache = small_cache(capacity_mib=1.0)
        assert cache.capacity_blocks == BYTES_PER_MIB // 4096

    def test_eviction_counted(self):
        cache = admitted((0, 8), (8, 8), (16, 8), capacity_blocks=2)
        assert cache.state_dict()["evictions"] == 1


class TestLRU:
    def test_empty_miss(self):
        assert not make_cache().lookup(0, 8)

    def test_admit_then_hit(self):
        assert admitted((0, 8)).lookup(0, 8)

    def test_partial_residency_is_miss(self):
        assert not admitted((0, 8)).lookup(0, 16)  # needs blocks 0 and 1

    def test_sub_range_hit(self):
        assert admitted((0, 16)).lookup(4, 4)

    def test_unaligned_range_covers_both_blocks(self):
        assert blocks(admitted((4, 8))) == [0, 1]

    def test_capacity_accounting(self):
        cache = admitted((0, 8))
        assert cache.capacity_blocks == 4 and blocks(cache) == [0]

    def test_lru_eviction_order(self):
        cache = admitted((0, 8), (8, 8), (16, 8), capacity_blocks=2)  # block 2 evicts 0
        assert not cache.lookup(0, 8) and cache.lookup(8, 8)
        assert cache.evictions == 1

    def test_hit_refreshes_recency_and_miss_does_not(self):
        cache = admitted((0, 8), (8, 8), capacity_blocks=2)
        assert not cache.lookup(8, 16)  # blocks 1 and 2: recency unchanged
        assert cache.lookup(0, 8)  # block 0 now MRU
        cache.admit(16, 8)  # evicts block 1
        assert blocks(cache) == [0, 2]

    def test_state_blocks_are_lru_first(self):
        cache = admitted((0, 8), (8, 8))
        assert cache.lookup(0, 8) and blocks(cache) == [1, 0]

    def test_never_exceeds_capacity(self):
        cache = make_cache(capacity_blocks=3)
        for i in range(20):
            cache.admit(i * 8, 8)
            assert len(blocks(cache)) <= 3

    def test_reinsert_refreshes(self):
        assert blocks(admitted((0, 8), (8, 8), (0, 8), (16, 8), capacity_blocks=2)) == [0, 2]

    def test_capacity_below_one_block(self):
        with pytest.raises(ValueError, match=r"capacity_bytes 100 below one block \(4096\)"):
            small_cache(100 / BYTES_PER_MIB)

    def test_bad_range(self):
        cache = make_cache()
        with pytest.raises(ValueError, match="length must be > 0, got 0"):
            cache.lookup(0, 0)
        with pytest.raises(ValueError, match="pba must be >= 0, got -1"):
            cache.admit(-1, 8)
        assert (cache.hits, cache.misses) == (0, 0)


class TestCheckpointState:
    def test_state_after_a_fixed_sequence(self):
        cache = make_cache(capacity_blocks=3)
        cache.admit(0, 8)                # [0]
        cache.admit(8, 16)               # [0, 1, 2]
        assert cache.lookup(0, 8)        # [1, 2, 0]
        assert not cache.lookup(24, 8)
        cache.admit(24, 8)               # [2, 0, 3], block 1 evicted
        cache.admit(4, 8)                # [3, 0, 1], block 2 evicted
        assert cache.lookup(8, 8)
        assert not cache.lookup(16, 8)
        state = cache.state_dict()
        assert list(state) == ["blocks", "evictions", "hits", "misses"]
        assert state["blocks"].dtype == np.int64
        assert {**state, "blocks": state["blocks"].tolist()} == {
            "blocks": [3, 0, 1], "evictions": 2, "hits": 2, "misses": 2}

    def test_restore_checks_the_blocks(self):
        cache = make_cache(capacity_blocks=2)
        for restored, error in (([0, 1, 2], "3 blocks exceed capacity 2"), ([1, 1], "duplicates")):
            with pytest.raises(ValueError, match=error):
                cache.load_state({"blocks": restored, "evictions": 0, "hits": 0, "misses": 0})


class TestCacheInTranslator:
    def make_fragmented(self, cache):
        t = LogStructuredTranslator(frontier_base=1000, cache=cache)
        t.submit(IORequest.write(4, 2))
        t.submit(IORequest.write(8, 2))
        return t

    def test_second_fragmented_read_hits(self):
        t = self.make_fragmented(small_cache())
        first = t.submit(IORequest.read(0, 12))
        second = t.submit(IORequest.read(0, 12))
        # Admission is whole-4KiB-block (the drive reads full blocks when
        # caching), so later hole pieces of the *first* read already hit
        # the blocks admitted for the earlier ones; the second read is
        # fully resident.
        assert first.cache_fragment_hits < first.fragments
        assert second.cache_fragment_hits == second.fragments
        assert second.read_seeks == 0

    def test_cache_hits_do_not_move_head(self):
        t = self.make_fragmented(small_cache())
        t.submit(IORequest.read(0, 12))
        t.submit(IORequest.read(0, 12))       # fully cached
        # Head still sits where the first read's last disk access ended.
        outcome = t.submit(IORequest.write(100, 2))
        assert outcome.write_seeks == 1

    def test_unfragmented_reads_bypass_cache(self):
        cache = small_cache()
        t = LogStructuredTranslator(frontier_base=1000, cache=cache)
        t.submit(IORequest.write(0, 8))
        t.submit(IORequest.read(0, 8))
        t.submit(IORequest.read(0, 8))
        assert cache.hits == 0 and cache.misses == 0

    def test_overwrite_redirects_reads_to_new_pba(self):
        # Stale cached blocks must not serve logically overwritten data:
        # the map redirects to new PBAs, which miss and re-admit.
        t = self.make_fragmented(small_cache())
        t.submit(IORequest.read(0, 12))
        t.submit(IORequest.write(4, 2))       # overwrite one fragment
        outcome = t.submit(IORequest.read(0, 12))
        new_pbas = [a.pba for a in outcome.accesses]
        assert t.frontier - 2 in new_pbas     # newest copy was read

    def test_thrash_when_working_set_exceeds_capacity(self):
        cache = small_cache(capacity_mib=0.0078125)  # 2 blocks
        t = LogStructuredTranslator(frontier_base=100_000, cache=cache)
        for lba in range(0, 200, 16):
            t.submit(IORequest.write(lba + 4, 2))
        # Loop over many fragmented ranges larger than the cache: second
        # pass still misses (LRU loop thrash).
        for _ in range(2):
            for lba in range(0, 200, 16):
                t.submit(IORequest.read(lba, 16))
        assert cache.hits < cache.misses
