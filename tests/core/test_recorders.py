"""Recorder tests."""

from repro.core.defrag import OpportunisticDefrag
from repro.core.recorders import FragmentationRecorder, OutcomeLogRecorder, SeekLogRecorder
from repro.core.simulator import replay
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator
from repro.trace.record import IORequest
from repro.trace.trace import Trace


class TestSeekLogRecorder:
    def test_records_seeks_with_direction(self):
        trace = Trace(
            [
                IORequest.write(0, 8),
                IORequest.read(100, 8),
                IORequest.write(300, 8),
            ]
        )
        recorder = SeekLogRecorder()
        replay(trace, InPlaceTranslator(), [recorder])
        assert len(recorder.records) == 2
        assert recorder.records[0].is_read
        assert not recorder.records[1].is_read
        assert recorder.records[0].distance == 92

    def test_distances_accessors(self):
        trace = Trace([IORequest.read(0, 8), IORequest.read(100, 8)])
        recorder = SeekLogRecorder()
        replay(trace, InPlaceTranslator(), [recorder])
        assert recorder.distances == [92]
        assert recorder.read_distances == [92]

    def test_defrag_rewrite_logged_as_write(self):
        trace = Trace(
            [
                IORequest.write(4, 2),
                IORequest.read(100, 8),   # move head away from frontier
                IORequest.read(0, 10),    # fragmented -> defrag rewrite
            ]
        )
        recorder = SeekLogRecorder()
        replay(
            trace,
            LogStructuredTranslator(frontier_base=1000, defrag=OpportunisticDefrag()),
            [recorder],
        )
        write_records = [r for r in recorder.records if not r.is_read]
        assert write_records  # the defrag rewrite seeked in write direction

    def test_op_index_recorded(self):
        trace = Trace([IORequest.read(0, 8), IORequest.read(100, 8)])
        recorder = SeekLogRecorder()
        replay(trace, InPlaceTranslator(), [recorder])
        assert recorder.records[0].op_index == 1


class TestFragmentationRecorder:
    def test_per_read_fragments(self):
        trace = Trace(
            [
                IORequest.write(4, 2),
                IORequest.read(0, 10),
                IORequest.read(4, 2),
            ]
        )
        recorder = FragmentationRecorder()
        replay(trace, LogStructuredTranslator(frontier_base=1000), [recorder])
        assert recorder.read_fragments == [3, 1]
        assert recorder.fragmented_read_fragments == [3]

    def test_writes_ignored(self):
        trace = Trace([IORequest.write(0, 8)])
        recorder = FragmentationRecorder()
        replay(trace, LogStructuredTranslator(frontier_base=1000), [recorder])
        assert recorder.read_fragments == []


class TestOutcomeLogRecorder:
    def test_keeps_everything(self, tiny_trace):
        recorder = OutcomeLogRecorder()
        replay(tiny_trace, InPlaceTranslator(), [recorder])
        assert [o.request for o in recorder.outcomes] == list(tiny_trace.requests)
