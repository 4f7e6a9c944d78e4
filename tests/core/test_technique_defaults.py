"""Default-constructed technique instances must not alias any state.

``def __init__(self, config: X = XConfig())`` evaluates the default once
at function-definition time, so every default-constructed instance shared
one config object — a latent aliasing bug (harmless only while the
configs stay frozen dataclasses).  The constructors now take ``None`` and
build a fresh config per instance; these tests pin that, and that the
*mutable* state (counters, LRU contents, window buffers, access counts)
of two default instances is fully independent.
"""

from __future__ import annotations

from repro.core.defrag import DefragConfig, OpportunisticDefrag
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache


def test_default_cache_instances_do_not_alias() -> None:
    first = SelectiveFragmentCache()
    second = SelectiveFragmentCache()
    assert first.capacity_blocks == SelectiveFragmentCache(SelectiveCacheConfig()).capacity_blocks

    first.admit(0, 8)
    assert first.lookup(0, 8)
    assert (first.hits, first.misses) == (1, 0)
    assert (second.hits, second.misses) == (0, 0)
    assert second.state_dict()["blocks"].size == 0
    assert not second.lookup(0, 8)


def test_default_prefetcher_instances_do_not_alias() -> None:
    first = LookAheadBehindPrefetcher()
    second = LookAheadBehindPrefetcher()
    default = LookAheadBehindPrefetcher(PrefetchConfig())
    assert (first.behind_sectors, first.ahead_sectors, first.capacity_sectors) == (
        default.behind_sectors, default.ahead_sectors, default.capacity_sectors)

    first.note_fragment_read(10_000, 8)
    assert first.window_reads == 1
    assert first.covers(10_000, 8)
    assert second.window_reads == 0
    assert not second.covers(10_000, 8)


def test_default_defrag_instances_do_not_alias() -> None:
    first = OpportunisticDefrag(DefragConfig(min_fragments=2, min_accesses=2))
    second = OpportunisticDefrag(DefragConfig(min_fragments=2, min_accesses=2))
    assert first.config is not second.config

    assert not first.should_defragment(0, 64, fragments=3)
    assert len(first.state_dict()["access_counts"]) == 1
    assert len(second.state_dict()["access_counts"]) == 0
    # The second instance starts its own count: first sighting never fires.
    assert not second.should_defragment(0, 64, fragments=3)

    defaults = (OpportunisticDefrag(), OpportunisticDefrag())
    assert defaults[0].config is not defaults[1].config
    assert defaults[0].config == DefragConfig()


def test_explicit_config_still_respected() -> None:
    cache = SelectiveFragmentCache(SelectiveCacheConfig(capacity_mib=1.0))
    assert cache.capacity_blocks == 256
    prefetcher = LookAheadBehindPrefetcher(PrefetchConfig(behind_kib=64.0))
    assert prefetcher.behind_sectors == 128
    defrag = OpportunisticDefrag(DefragConfig(min_fragments=4))
    assert defrag.config.min_fragments == 4
