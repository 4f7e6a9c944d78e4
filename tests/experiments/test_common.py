"""The engine's workload traces: one per (name, seed, scale)."""

from repro.experiments.sweep import SweepEngine


class TestWorkloadTraceMemo:
    def test_same_key_same_object(self):
        engine = SweepEngine(42, 0.05)
        assert engine.trace("ts_0") is engine.trace("ts_0")

    def test_distinct_keys_distinct_traces(self):
        a = SweepEngine(42, 0.05).trace("ts_0")
        b = SweepEngine(7, 0.05).trace("ts_0")
        c = SweepEngine(42, 0.1).trace("ts_0")
        assert a is not b and a is not c
        assert len(c) > len(a)
