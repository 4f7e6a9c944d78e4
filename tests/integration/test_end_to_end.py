"""End-to-end flows: public API and trace persistence."""

from repro import (LS, LS_CACHE, NOLS, build_translator, replay, seek_amplification,
                   synthesize_workload)
from repro.trace.csvio import read_csv_trace, write_csv_trace


class TestPublicApiFlow:
    def test_quickstart_flow(self):
        trace = synthesize_workload("w91", seed=7, scale=0.05)
        baseline = replay(trace, build_translator(trace, NOLS))
        ls = replay(trace, build_translator(trace, LS))
        saf = seek_amplification(ls.stats, baseline.stats)
        assert saf.total > 0
        assert saf.write < 0.2  # log-structuring kills write seeks

    def test_technique_comparison_flow(self):
        trace = synthesize_workload("w91", seed=7, scale=0.1)
        baseline = replay(trace, build_translator(trace, NOLS))
        ls = replay(trace, build_translator(trace, LS))
        cached = replay(trace, build_translator(trace, LS_CACHE))
        ls_saf = seek_amplification(ls.stats, baseline.stats)
        cache_saf = seek_amplification(cached.stats, baseline.stats)
        assert cache_saf.total < ls_saf.total


class TestTracePersistence:
    def test_synthetic_trace_survives_round_trip(self, tmp_path):
        trace = synthesize_workload("ts_0", seed=3, scale=0.02)
        path = tmp_path / "ts_0.csv"
        write_csv_trace(trace, path)
        loaded = read_csv_trace(path)
        base_a = replay(trace, build_translator(trace, NOLS)).stats
        base_b = replay(loaded, build_translator(loaded, NOLS)).stats
        assert base_a.total_seeks == base_b.total_seeks

