"""Look-ahead-behind prefetching tests (Algorithm 2)."""

import pytest

from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest


def small_prefetcher(behind_kib=4.0, ahead_kib=4.0):
    return LookAheadBehindPrefetcher(
        PrefetchConfig(behind_kib=behind_kib, ahead_kib=ahead_kib, buffer_mib=1.0)
    )


class TestPrefetchConfig:
    def test_defaults_match_paper_horizon(self):
        config = PrefetchConfig()
        assert config.behind_kib == 256.0
        assert config.ahead_kib == 256.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            PrefetchConfig(behind_kib=-1)
        with pytest.raises(ValueError):
            PrefetchConfig(behind_kib=0, ahead_kib=0)
        with pytest.raises(ValueError):
            PrefetchConfig(buffer_mib=0)


class TestWindowBookkeeping:
    def test_window_spans_behind_and_ahead(self):
        pf = small_prefetcher()
        pf.note_fragment_read(1000, 8)
        assert pf.covers(1000 - pf.behind_sectors, 4)
        assert pf.covers(1008 + pf.ahead_sectors - 4, 4)
        assert not pf.covers(1008 + pf.ahead_sectors, 1)

    def test_sector_conversion(self):
        pf = small_prefetcher(behind_kib=4.0, ahead_kib=8.0)
        assert pf.behind_sectors == 8
        assert pf.ahead_sectors == 16

    def test_window_reads_counter(self):
        pf = small_prefetcher()
        pf.note_fragment_read(0, 8)
        pf.note_fragment_read(100, 8)
        assert pf.window_reads == 2


class TestPrefetchInTranslator:
    def make_translator(self, prefetch=True):
        return LogStructuredTranslator(
            frontier_base=1000,
            prefetcher=small_prefetcher() if prefetch else None,
        )

    def test_misordered_writes_prefetched_on_readback(self):
        # Writes land in the log in reverse LBA order; an ordered read of
        # the range hits the look-behind window for both later pieces (the
        # window around the first piece spans the whole three-piece run
        # when behind covers two pieces).
        t = LogStructuredTranslator(
            frontier_base=1000,
            prefetcher=LookAheadBehindPrefetcher(
                PrefetchConfig(behind_kib=8.0, ahead_kib=8.0, buffer_mib=1.0)
            ),
        )
        for lba in (16, 8, 0):
            t.submit(IORequest.write(lba, 8))
        outcome = t.submit(IORequest.read(0, 24))
        assert outcome.fragments == 3
        assert outcome.buffer_fragment_hits == 2
        assert outcome.read_seeks == 1

    def test_without_prefetch_same_read_seeks_per_fragment(self):
        t = self.make_translator(prefetch=False)
        for lba in (16, 8, 0):
            t.submit(IORequest.write(lba, 8))
        outcome = t.submit(IORequest.read(0, 24))
        assert outcome.read_seeks == 3

    def test_unfragmented_reads_bypass_buffer(self):
        # Algorithm 2 guards on FragmentedRead: plain reads are served
        # directly and do not populate the buffer.
        t = self.make_translator()
        t.submit(IORequest.write(0, 8))
        t.submit(IORequest.read(0, 8))       # single fragment
        assert t.prefetcher.window_reads == 0

    def test_buffer_hits_do_not_move_head(self):
        t = self.make_translator()
        for lba in (16, 8, 0):
            t.submit(IORequest.write(lba, 8))
        t.submit(IORequest.read(0, 24))
        # Head ended at the last disk access (the LBA-16 piece at the log
        # start); a write then appends at the frontier and must seek.
        outcome = t.submit(IORequest.write(100, 8))
        assert outcome.write_seeks == 1

    def test_distant_fragments_not_covered(self):
        t = self.make_translator()
        t.submit(IORequest.write(0, 8))
        # Push the frontier far beyond the window.
        for i in range(20):
            t.submit(IORequest.write(200 + i * 8, 8))
        t.submit(IORequest.write(8, 8))
        outcome = t.submit(IORequest.read(0, 16))
        assert outcome.fragments == 2
        assert outcome.buffer_fragment_hits == 0
        assert outcome.read_seeks == 2
