"""Translator semantics tests: NoLS baseline and log-structured model."""

import pytest

from repro.core.outcomes import AccessSource
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator
from repro.extentmap.block_map import BlockMap
from repro.trace.record import IORequest


class TestInPlaceTranslator:
    def test_serves_at_lba(self):
        t = InPlaceTranslator()
        outcome = t.submit(IORequest.read(100, 8))
        assert outcome.accesses[0].pba == 100
        assert outcome.fragments == 1

    def test_seek_classification(self):
        t = InPlaceTranslator()
        t.submit(IORequest.write(0, 8))
        read = t.submit(IORequest.read(100, 8))
        write = t.submit(IORequest.write(300, 8))
        assert read.read_seeks == 1 and read.write_seeks == 0
        assert write.write_seeks == 1 and write.read_seeks == 0

    def test_sequential_ops_no_seeks(self, sequential_write_trace):
        t = InPlaceTranslator()
        outcomes = [t.submit(r) for r in sequential_write_trace]
        assert sum(o.read_seeks + o.write_seeks + o.defrag_write_seeks for o in outcomes) == 0

    def test_description(self):
        assert InPlaceTranslator().description == "NoLS"


class TestLogStructuredWrites:
    def test_write_goes_to_frontier(self):
        t = LogStructuredTranslator(frontier_base=1000)
        outcome = t.submit(IORequest.write(0, 8))
        assert outcome.accesses[0].pba == 1000
        assert t.frontier == 1008

    def test_back_to_back_writes_never_seek(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(500, 8))
        for lba in (0, 900, 4, 800):
            outcome = t.submit(IORequest.write(lba, 8))
            assert outcome.write_seeks == 0

    def test_write_after_read_elsewhere_seeks(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(0, 8))
        t.submit(IORequest.read(500, 8))
        outcome = t.submit(IORequest.write(100, 8))
        assert outcome.write_seeks == 1

    def test_log_sectors_written(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(0, 8))
        t.submit(IORequest.write(0, 8))
        assert t.frontier - t.frontier_base == 16  # both writes appended

    def test_negative_frontier_rejected(self):
        with pytest.raises(ValueError):
            LogStructuredTranslator(frontier_base=-1)


class TestLogStructuredReads:
    def test_unwritten_data_at_identity(self):
        t = LogStructuredTranslator(frontier_base=1000)
        outcome = t.submit(IORequest.read(100, 8))
        assert outcome.accesses[0].pba == 100
        assert outcome.accesses[0].hole
        assert outcome.fragments == 1

    def test_read_follows_remap(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(100, 8))
        outcome = t.submit(IORequest.read(100, 8))
        assert outcome.accesses[0].pba == 1000
        assert not outcome.accesses[0].hole

    def test_fragmented_read_counts_per_fragment_seeks(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(4, 2))  # fragments 0..10
        outcome = t.submit(IORequest.read(0, 10))
        # [hole 0-4, log 4-6, hole 6-10] = 3 fragments
        assert outcome.fragments == 3
        assert outcome.read_seeks == 3

    def test_read_crossing_frontier_base_rejected(self):
        t = LogStructuredTranslator(frontier_base=100)
        with pytest.raises(ValueError, match="crosses the frontier base"):
            t.submit(IORequest.read(96, 8))

    def test_temporal_read_order_is_seek_free(self):
        # §III "small file creation": reading back in write order costs at
        # most the initial seek.
        t = LogStructuredTranslator(frontier_base=10_000)
        lbas = [500, 10, 900, 42]
        for lba in lbas:
            t.submit(IORequest.write(lba, 8))
        seeks = sum(t.submit(IORequest.read(lba, 8)).read_seeks for lba in lbas)
        assert seeks == 1  # one seek back to the start of the log run

    def test_sequential_read_after_random_write_amplifies(self):
        # §III second thought experiment.
        t = LogStructuredTranslator(frontier_base=10_000)
        for lba in (72, 8, 40, 24, 56):
            t.submit(IORequest.write(lba, 8))
        outcome = t.submit(IORequest.read(0, 80))
        assert outcome.fragments >= 5
        assert outcome.read_seeks >= 5


class TestPluggableMap:
    def test_block_map_backend_equivalent(self):
        a = LogStructuredTranslator(frontier_base=1000)
        b = LogStructuredTranslator(frontier_base=1000, address_map=BlockMap())
        ops = [
            IORequest.write(4, 2),
            IORequest.write(0, 3),
            IORequest.read(0, 10),
            IORequest.write(8, 2),
            IORequest.read(2, 6),
        ]
        for op in ops:
            oa, ob = a.submit(op), b.submit(op)
            assert (oa.fragments, oa.read_seeks, oa.write_seeks) == (
                ob.fragments,
                ob.read_seeks,
                ob.write_seeks,
            )


class TestDescriptionAndIntrospection:
    def test_description_reflects_techniques(self):
        from repro.core.defrag import OpportunisticDefrag
        from repro.core.prefetch import LookAheadBehindPrefetcher
        from repro.core.selective_cache import SelectiveFragmentCache

        assert LogStructuredTranslator(0).description == "LS"
        assert (
            LogStructuredTranslator(0, defrag=OpportunisticDefrag()).description
            == "LS+defrag"
        )
        t = LogStructuredTranslator(
            0,
            defrag=OpportunisticDefrag(),
            prefetcher=LookAheadBehindPrefetcher(),
            cache=SelectiveFragmentCache(),
        )
        assert t.description == "LS+defrag+prefetch+cache"

    def test_static_fragmentation(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(0, 8))
        t.submit(IORequest.write(100, 8))
        assert t.address_map.mapped_extent_count() == 2

    def test_disk_access_sources(self):
        t = LogStructuredTranslator(frontier_base=1000)
        t.submit(IORequest.write(0, 8))
        outcome = t.submit(IORequest.read(0, 8))
        assert all(a.source is AccessSource.DISK for a in outcome.accesses)
