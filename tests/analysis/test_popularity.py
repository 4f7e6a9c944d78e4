"""Fragment popularity / cache-sizing tests (Fig. 10)."""

import pytest

from repro.analysis.popularity import FragmentPopularityRecorder, PopularityCurve
from repro.core.simulator import replay
from repro.core.translators import LogStructuredTranslator
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.util.units import SECTORS_PER_MIB


class TestRecorder:
    def make_replay(self, requests):
        recorder = FragmentPopularityRecorder()
        replay(Trace(requests), LogStructuredTranslator(frontier_base=10_000), [recorder])
        return recorder

    def test_counts_fragmented_read_pieces(self):
        recorder = self.make_replay(
            [
                IORequest.write(4, 2),
                IORequest.read(0, 10),   # 3 pieces
                IORequest.read(0, 10),   # same 3 pieces again
            ]
        )
        curve = recorder.curve()
        assert len(recorder.fragment_stats()) == 3
        assert curve.total_accesses == 6
        assert curve.access_counts[0] == 2

    def test_unfragmented_reads_ignored(self):
        recorder = self.make_replay(
            [IORequest.write(0, 8), IORequest.read(0, 8)]
        )
        assert len(recorder.fragment_stats()) == 0

    def test_writes_ignored(self):
        recorder = self.make_replay([IORequest.write(0, 8)])
        assert len(recorder.fragment_stats()) == 0

    def test_size_tracks_largest_observation(self):
        recorder = self.make_replay(
            [
                IORequest.write(8, 8),
                IORequest.read(6, 4),    # piece at pba 10000 len 2
                IORequest.read(6, 12),   # piece at pba 10000 len 8... same start
            ]
        )
        curve = recorder.curve()
        assert curve.cumulative_mib[-1] >= 8 / SECTORS_PER_MIB


class TestPopularityCurve:
    def test_sorted_descending(self):
        curve = PopularityCurve(access_counts=[5, 3, 1], cumulative_mib=[1.0, 2.0, 3.0])
        assert curve.fragment_count == 3
        assert curve.total_accesses == 9

    def test_cache_size_for_share(self):
        curve = PopularityCurve(access_counts=[6, 3, 1], cumulative_mib=[1.0, 2.0, 3.0])
        assert curve.cache_mib_for_access_share(0.6) == 1.0
        assert curve.cache_mib_for_access_share(0.9) == 2.0
        assert curve.cache_mib_for_access_share(1.0) == 3.0

    def test_share_validation(self):
        curve = PopularityCurve(access_counts=[1], cumulative_mib=[1.0])
        with pytest.raises(ValueError):
            curve.cache_mib_for_access_share(0.0)
        with pytest.raises(ValueError):
            curve.cache_mib_for_access_share(1.5)

    def test_empty_curve(self):
        curve = PopularityCurve(access_counts=[], cumulative_mib=[])
        assert curve.cache_mib_for_access_share(0.5) == 0.0
