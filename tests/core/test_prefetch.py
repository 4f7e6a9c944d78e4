"""Look-ahead-behind prefetching tests (Algorithm 2)."""

import pytest

from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest


def small_prefetcher(behind_kib=4.0, ahead_kib=4.0):
    return LookAheadBehindPrefetcher(
        PrefetchConfig(behind_kib=behind_kib, ahead_kib=ahead_kib, buffer_mib=1.0)
    )


def ring(capacity_sectors, *windows):
    """A prefetcher whose windows are the fragment plus one sector each
    side, after buffering each ``(start, end)`` window in turn."""
    pf = LookAheadBehindPrefetcher(
        PrefetchConfig(behind_kib=0.5, ahead_kib=0.5, buffer_mib=capacity_sectors / 2048)
    )
    for start, end in windows:
        pf.note_fragment_read(start + 1, end - start - 2)
    return pf


def windows(pf):
    """The buffered ``[start, end]`` windows, oldest first."""
    return pf.state_dict()["windows"]


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


class TestWindowBuffer:
    def test_empty_covers_nothing(self):
        assert not ring(1000).covers(0, 1)

    def test_window_covers_contained_range(self):
        buf = ring(1000, (100, 200))
        assert buf.covers(100, 100) and buf.covers(150, 10)
        assert not buf.covers(99, 2) and not buf.covers(195, 10)

    def test_range_spanning_two_windows_not_covered(self):
        buf = ring(1000, (0, 100), (100, 200))
        assert not buf.covers(50, 100)  # single-window containment required

    def test_negative_start_clamped(self):
        assert windows(ring(1000, (-50, 100))) == [[0, 100]]

    def test_oldest_window_evicted(self):
        buf = ring(200, (0, 100), (1000, 1100), (2000, 2100))  # the third evicts [0, 100)
        assert windows(buf) == [[1000, 1100], [2000, 2100]]

    def test_windows_listed_oldest_first(self):
        assert windows(ring(500, (0, 100), (200, 300))) == [[0, 100], [200, 300]]

    def test_oversized_window_truncated_to_tail(self):
        assert windows(ring(100, (0, 1000))) == [[900, 1000]]

    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="buffer_mib must be > 0, got 0"):
            PrefetchConfig(buffer_mib=0)
        assert ring(0.5).capacity_sectors == 1  # a sub-sector buffer rounds up

    def test_empty_window(self):
        buf = ring(100)
        with pytest.raises(ValueError, match=r"empty window \[10, 10\)"):
            buf.note_fragment_read(11, -2)
        assert buf.window_reads == 0

    def test_bad_covers_args(self):
        with pytest.raises(ValueError, match="length must be > 0, got 0"):
            ring(100).covers(0, 0)


class TestCheckpointState:
    def test_state_after_a_fixed_sequence(self):
        # 2-sector look-behind, 4-sector look-ahead, a 64-sector buffer.
        pf = LookAheadBehindPrefetcher(
            PrefetchConfig(behind_kib=1.0, ahead_kib=2.0, buffer_mib=0.03125)
        )
        pf.note_fragment_read(1, 4)        # [0, 9): clipped at pba 0
        pf.note_fragment_read(1000, 100)   # [1040, 1104): truncated; evicts [0, 9)
        assert pf.covers(1040, 64)
        pf.note_fragment_read(100, 8)      # [98, 112): evicts [1040, 1104)
        pf.note_fragment_read(500, 30)     # [498, 534)
        assert not pf.covers(110, 4)
        assert pf.state_dict() == {"windows": [[98, 112], [498, 534]], "window_reads": 4}

    def test_restore_checks_the_windows(self):
        pf = ring(100)
        for windows, error in (([[5, 5]], r"invalid window \[5, 5\)"),
                               ([[0, 60], [100, 141]], "hold 101 sectors, over capacity 100")):
            with pytest.raises(ValueError, match=error):
                pf.load_state({"windows": windows, "window_reads": 0})


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
