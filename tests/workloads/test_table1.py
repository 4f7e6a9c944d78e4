"""Table I registry tests."""

import pytest

from repro.workloads import synthesize_workload
from repro.workloads.table1 import (CLOUDPHYSICS_WORKLOADS, FIG2_MSR, FIG3_WORKLOADS,
                                    FIG4_WORKLOADS, FIG5_WORKLOADS, FIG7_WORKLOADS,
                                    FIG10_WORKLOADS, MSR_WORKLOADS, TABLE1, get_spec)


class TestRegistryCompleteness:
    def test_21_workloads(self):
        assert len(TABLE1) == 21

    def test_family_split(self):
        assert len(MSR_WORKLOADS) == 9
        assert len(CLOUDPHYSICS_WORKLOADS) == 12

    def test_paper_msr_names_present(self):
        for name in ("usr_0", "src2_2", "hm_1", "web_0", "usr_1",
                     "wdev_0", "mds_0", "rsrch_0", "ts_0"):
            assert name in MSR_WORKLOADS

    def test_figure_subsets_are_registered(self):
        for subset in (FIG2_MSR, FIG3_WORKLOADS, FIG4_WORKLOADS,
                       FIG5_WORKLOADS, FIG7_WORKLOADS, FIG10_WORKLOADS):
            for name in subset:
                assert name in TABLE1

    def test_spec_names_match_keys(self):
        for name, entry in TABLE1.items():
            assert entry.spec.name == name


class TestPaperRows:
    def test_read_fraction_derivation(self):
        row = TABLE1["w91"].paper
        expected = 3147384 / (3147384 + 1169222)
        assert abs(row.read_fraction - expected) < 1e-9

    def test_spec_read_fraction_matches_paper(self):
        for name, entry in TABLE1.items():
            assert abs(entry.spec.read_fraction - entry.paper.read_fraction) < 0.002

    def test_spec_mean_write_matches_paper(self):
        for name, entry in TABLE1.items():
            assert entry.spec.mean_write_kib == entry.paper.mean_write_kb

    def test_expectations_cache_exceptions(self):
        # Paper §V: caching lowest everywhere except usr_1 and src2_2.
        not_best = {n for n, e in TABLE1.items() if not e.expect.cache_is_best}
        assert not_best == {"usr_1", "src2_2"}

    def test_expectations_defrag_hurts(self):
        hurts = {n for n, e in TABLE1.items() if e.expect.defrag_hurts}
        assert hurts == {"src2_2", "w93", "w20"}

    def test_expectations_prefetch_groups(self):
        large = {n for n, e in TABLE1.items() if e.expect.prefetch_gain_large is True}
        marginal = {n for n, e in TABLE1.items() if e.expect.prefetch_gain_large is False}
        assert large == {"w84", "w95", "w91"}
        assert marginal == {"usr_1", "hm_1", "w55", "w33"}


class TestLookup:
    def test_get_spec(self):
        assert get_spec("w91").name == "w91"

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_spec("nope")

    def test_synthesize_by_name(self):
        trace = synthesize_workload("ts_0", seed=1, scale=0.05)
        assert trace.name == "ts_0"
        assert len(trace) > 0

    def test_synthesize_unknown(self):
        with pytest.raises(KeyError):
            synthesize_workload("nope")
