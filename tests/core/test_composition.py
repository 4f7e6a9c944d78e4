"""Technique-composition tests: defrag + prefetch + cache interplay."""

from repro.core.defrag import OpportunisticDefrag
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest


def _seeks(outcome):
    return outcome.read_seeks + outcome.write_seeks + outcome.defrag_write_seeks


def make_translator(defrag=False, prefetch=False, cache=False):
    return LogStructuredTranslator(
        frontier_base=10_000,
        defrag=OpportunisticDefrag() if defrag else None,
        prefetcher=(
            LookAheadBehindPrefetcher(
                PrefetchConfig(behind_kib=8.0, ahead_kib=8.0, buffer_mib=1.0)
            )
            if prefetch
            else None
        ),
        cache=(
            SelectiveFragmentCache(SelectiveCacheConfig(capacity_mib=1.0))
            if cache
            else None
        ),
    )


def fragment(translator):
    translator.submit(IORequest.write(4, 2))
    translator.submit(IORequest.write(8, 2))


class TestDefragWithCache:
    def test_defrag_converges_so_cache_stops_admitting(self):
        t = make_translator(defrag=True, cache=True)
        fragment(t)
        t.submit(IORequest.read(0, 12))          # fragmented: admit + defrag
        second = t.submit(IORequest.read(0, 12))  # defragged: unfragmented
        assert second.fragments == 1
        assert second.cache_fragment_hits == 0   # bypasses the cache entirely

    def test_cache_hit_prevents_disk_reads_but_not_defrag(self):
        # Fully cached fragmented reads still trigger the rewrite: the
        # policy acts on fragmentation, not on medium served.
        t = make_translator(defrag=False, cache=True)
        fragment(t)
        t.submit(IORequest.read(0, 12))
        cached = t.submit(IORequest.read(0, 12))
        assert cached.cache_fragment_hits == cached.fragments
        assert cached.read_seeks == 0

    def test_stale_cache_after_defrag_is_harmless(self):
        t = make_translator(defrag=True, cache=True)
        fragment(t)
        t.submit(IORequest.read(0, 12))
        # Overwrite part of the defragged copy; the read must follow the
        # map to the newest PBAs, missing any stale blocks.
        t.submit(IORequest.write(4, 2))
        outcome = t.submit(IORequest.read(0, 12))
        newest = max(a.pba for a in outcome.accesses if not a.defrag)
        assert newest >= t.frontier - 14


class TestDefragWithPrefetch:
    def test_buffer_hits_do_not_stop_defrag(self):
        t = make_translator(defrag=True, prefetch=True)
        fragment(t)
        first = t.submit(IORequest.read(0, 12))
        assert first.defrag_rewritten_sectors == 12

    def test_post_defrag_reads_skip_prefetcher(self):
        t = make_translator(defrag=True, prefetch=True)
        fragment(t)
        t.submit(IORequest.read(0, 12))
        windows_before = t.prefetcher.window_reads
        second = t.submit(IORequest.read(0, 12))
        assert second.fragments == 1
        assert t.prefetcher.window_reads == windows_before


class TestAllThree:
    def test_composed_serves_correct_data_with_fewer_seeks(self):
        plain = make_translator()
        composed = make_translator(defrag=True, prefetch=True, cache=True)
        ops = [
            IORequest.write(4, 2),
            IORequest.write(8, 2),
            IORequest.write(20, 4),
            IORequest.read(0, 12),
            IORequest.read(16, 12),
            IORequest.read(0, 12),
            IORequest.read(16, 12),
        ]
        plain_seeks = sum(_seeks(plain.submit(op)) for op in ops)
        composed_seeks = sum(_seeks(composed.submit(op)) for op in ops)
        assert composed_seeks <= plain_seeks
        # Both must resolve the same logical mapping at the end.
        for lba in (4, 8, 20):
            a = plain.address_map.lookup(lba, 2)
            b = composed.address_map.lookup(lba, 2)
            assert [s.is_hole for s in a] == [s.is_hole for s in b]

    def test_description_lists_all(self):
        t = make_translator(defrag=True, prefetch=True, cache=True)
        assert t.description == "LS+defrag+prefetch+cache"
