"""Translation-aware selective caching tests (Algorithm 3)."""

import pytest

from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest
from repro.util.units import BYTES_PER_MIB


def small_cache(capacity_mib=0.0625):  # 64 KiB: eviction triggers quickly
    return SelectiveFragmentCache(SelectiveCacheConfig(capacity_mib=capacity_mib))


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
        cache = small_cache(capacity_mib=0.0078125)  # 8 KiB = 2 blocks
        cache.admit(0, 8)
        cache.admit(8, 8)
        cache.admit(16, 8)
        assert cache.state_dict()["evictions"] == 1


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
