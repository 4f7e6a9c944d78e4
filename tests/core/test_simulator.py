"""Simulator / SimStats / recorder-dispatch tests."""

from repro.core.outcomes import SimStats
from repro.core.recorders import OutcomeLogRecorder
from repro.core.simulator import replay
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator
from repro.trace.record import IORequest
from repro.trace.trace import Trace


class TestSimulatorRun:
    def test_run_result_fields(self, tiny_trace):
        result = replay(tiny_trace, InPlaceTranslator())
        assert result.trace_name == "tiny"
        assert result.translator == "NoLS"
        assert result.stats.reads + result.stats.writes == 6

    def test_stats_aggregate_outcomes(self, tiny_trace):
        result = replay(tiny_trace, InPlaceTranslator())
        assert result.stats.reads == 3
        assert result.stats.writes == 3
        assert result.stats.sectors_read == 40
        assert result.stats.sectors_written == 20

    def test_recorders_see_every_op(self, tiny_trace):
        recorder = OutcomeLogRecorder()
        replay(tiny_trace, InPlaceTranslator(), [recorder])
        assert len(recorder.outcomes) == len(tiny_trace)


class TestSimStats:
    def test_fragmented_read_counting(self):
        trace = Trace(
            [
                IORequest.write(4, 2),
                IORequest.read(0, 10),   # 3 fragments
                IORequest.read(4, 2),    # 1 fragment
            ]
        )
        result = replay(trace, LogStructuredTranslator(frontier_base=1000))
        assert result.stats.fragmented_reads == 1
        assert result.stats.read_fragments == 4

    def test_total_seeks_includes_defrag(self):
        stats = SimStats(read_seeks=3, write_seeks=2, defrag_write_seeks=1)
        assert stats.total_seeks == 6
        assert stats.total_write_seeks == 3

    def test_empty_trace(self):
        result = replay(Trace([]), InPlaceTranslator())
        assert result.stats.reads + result.stats.writes == 0
        assert result.stats.total_seeks == 0
