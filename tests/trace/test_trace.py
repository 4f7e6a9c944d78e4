"""Trace container tests."""

from repro.trace.trace import Trace


class TestTraceBasics:
    def test_len_and_iter(self, tiny_trace):
        assert len(tiny_trace) == 6
        assert sum(1 for _ in tiny_trace) == 6

    def test_indexing(self, tiny_trace):
        assert tiny_trace[0].is_write
        assert tiny_trace[-1].lba == 16

    def test_slicing_returns_trace(self, tiny_trace):
        head = tiny_trace[:2]
        assert isinstance(head, Trace)
        assert len(head) == 2
        assert head.name == tiny_trace.name

    def test_counts(self, tiny_trace):
        assert tiny_trace.read_count == 3
        assert tiny_trace.write_count == 3


class TestMaxEnd:
    def test_max_end(self, tiny_trace):
        assert tiny_trace.max_end == 24

    def test_empty_trace(self):
        assert Trace([]).max_end == 0

    def test_cached_value_stable(self, tiny_trace):
        assert tiny_trace.max_end == tiny_trace.max_end
