"""experiments.common plumbing tests."""

from repro.experiments.common import workload_trace


class TestWorkloadTraceMemo:
    def test_same_key_same_object(self):
        a = workload_trace("ts_0", 42, 0.05)
        b = workload_trace("ts_0", 42, 0.05)
        assert a is b

    def test_distinct_keys_distinct_traces(self):
        a = workload_trace("ts_0", 42, 0.05)
        b = workload_trace("ts_0", 7, 0.05)
        c = workload_trace("ts_0", 42, 0.1)
        assert a is not b and a is not c
        assert len(c) > len(a)

