"""Archetype-validation API tests."""

import pytest

from repro.workloads.table1 import Expectations
from repro.workloads.validation import (
    ValidationReport,
    check_expectations,
    validate_archetype,
)


def saf(ls=1.0, defrag=1.0, prefetch=1.0, cache=1.0):
    return {
        "LS": ls,
        "LS+defrag": defrag,
        "LS+prefetch": prefetch,
        "LS+cache": cache,
    }


class TestCheckExpectations:
    def test_all_pass(self):
        report = check_expectations(
            "x",
            saf(ls=2.0, defrag=1.5, prefetch=1.0, cache=0.5),
            Expectations(ls_amplifies=True, cache_is_best=True,
                         prefetch_gain_large=True),
        )
        assert report.passed
        assert report.failures() == []

    def test_amplification_mismatch_fails(self):
        report = check_expectations("x", saf(ls=0.5, cache=0.3), Expectations(ls_amplifies=True))
        assert not report.passed
        assert any(c.name == "ls_amplifies" for c in report.failures())

    def test_cache_not_best_check(self):
        report = check_expectations(
            "x",
            saf(ls=2.0, defrag=1.8, prefetch=1.2, cache=1.5),
            Expectations(ls_amplifies=True, cache_is_best=False),
        )
        assert report.passed

    def test_cache_not_best_fails_when_cache_wins(self):
        report = check_expectations(
            "x",
            saf(ls=2.0, defrag=1.8, prefetch=1.2, cache=0.4),
            Expectations(ls_amplifies=True, cache_is_best=False),
        )
        assert any(c.name == "cache_not_best" for c in report.failures())

    def test_defrag_hurt_check(self):
        expect = Expectations(ls_amplifies=True, defrag_hurts=True)
        hurting = check_expectations("x", saf(ls=1.5, defrag=1.8, cache=1.0), expect)
        assert hurting.passed
        helping = check_expectations("x", saf(ls=1.5, defrag=1.2, cache=1.0), expect)
        assert any(c.name == "defrag_hurts" for c in helping.failures())

    def test_prefetch_gain_bounds(self):
        large = Expectations(ls_amplifies=True, prefetch_gain_large=True)
        marginal = Expectations(ls_amplifies=True, prefetch_gain_large=False)
        big_gain = saf(ls=3.0, prefetch=1.0, cache=0.9)
        small_gain = saf(ls=3.0, prefetch=2.8, cache=0.9)
        assert check_expectations("x", big_gain, large).passed
        assert not check_expectations("x", small_gain, large).passed
        assert check_expectations("x", small_gain, marginal).passed
        assert not check_expectations("x", big_gain, marginal).passed

    def test_technique_never_hurts_checks(self):
        report = check_expectations(
            "x",
            saf(ls=1.0, prefetch=1.5, cache=0.5),
            Expectations(ls_amplifies=False),
        )
        assert any(c.name == "LS+prefetch_never_hurts" for c in report.failures())


class TestValidateArchetype:
    def test_w91_validates(self):
        report = validate_archetype("w91", seed=42, scale=0.5)
        assert isinstance(report, ValidationReport)
        assert report.workload == "w91"
        assert set(report.saf) == {"LS", "LS+defrag", "LS+prefetch", "LS+cache"}
        # At half scale the headline shapes still hold for w91.
        names = {c.name for c in report.checks}
        assert "ls_amplifies" in names and "cache_is_best" in names

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            validate_archetype("nope")

    def test_supplied_trace_used(self):
        from repro.workloads import synthesize_workload

        trace = synthesize_workload("rsrch_0", seed=1, scale=0.1)
        report = validate_archetype("rsrch_0", trace=trace)
        assert report.saf["LS"] < 1.0
