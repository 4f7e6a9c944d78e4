"""Schema tests for every trace-driven exhibit at a tiny scale.

These pin the exact structure of the data each runner returns (the JSON
contract consumers of ``results/*.json`` rely on), independent of the
shape assertions in tests/integration.
"""

import pytest

from repro.experiments import fig2, fig3, fig4, fig5, fig7, fig10, fig11
from repro.experiments.sweep import SweepEngine

TINY = SweepEngine(seed=42, scale=0.05)  # shared: tests reuse its rows


class TestFig2Schema:
    def test_rows(self):
        data = fig2.run(TINY)
        assert len(data) == 21
        for row in data.values():
            assert row["family"] in ("msr", "cloudphysics")
            for side in ("nols", "ls"):
                assert set(row[side]) == {"read_seeks", "write_seeks"}
                assert all(v >= 0 for v in row[side].values())


class TestFig3Schema:
    def test_rows(self):
        data = fig3.run(TINY)
        for row in data.values():
            assert set(row) >= {
                "window_ops",
                "series",
                "total_extra_long_seeks",
                "max_window",
                "windows_with_overhead",
                "windows",
                "burstiness",
            }
            assert row["windows_with_overhead"] <= row["windows"]
            assert len(row["series"]) <= 200  # downsampled


class TestFig4Schema:
    def test_rows(self):
        data = fig4.run(TINY)
        for row in data.values():
            assert 0.0 <= row["nols_fraction_within_window"] <= 1.0
            assert 0.0 <= row["ls_fraction_within_window"] <= 1.0
            for cdf_key in ("nols_cdf", "ls_cdf"):
                fractions = [f for _, f in row[cdf_key]]
                assert fractions == sorted(fractions)


class TestFig5Schema:
    def test_rows(self):
        data = fig5.run(TINY)
        for row in data.values():
            assert row["total_fragments"] >= 2 * row["fragmented_reads"]
            assert row["max_fragments_per_read"] >= 2 or row["fragmented_reads"] == 0
            for x, f in row["cdf"]:
                assert x >= 2 and 0 < f <= 1.0


class TestFig7Schema:
    def test_rows(self):
        data = fig7.run(TINY)
        for row in data.values():
            assert 0.0 <= row["descending_step_fraction_all"] <= 1.0
            assert len(row["lbas"]) == row["sample_ops"] or len(row["lbas"]) <= 400


class TestFig10Schema:
    def test_rows(self):
        data = fig10.run(TINY)
        for row in data.values():
            assert row["cache_mib_for_50pct"] <= row["cache_mib_for_80pct"] + 1e-9
            assert row["cache_mib_for_80pct"] <= row["cache_mib_for_90pct"] + 1e-9
            assert row["cache_mib_for_90pct"] <= row["total_mib"] + 1e-9
            counts = row["access_counts"]
            assert counts == sorted(counts, reverse=True)
            cumulative = row["cumulative_mib"]
            assert cumulative == sorted(cumulative)


class TestFig11Schema:
    def test_rows(self):
        data = fig11.run(TINY)
        assert len(data) == 21
        for row in data.values():
            for config in ("LS", "LS+defrag", "LS+prefetch", "LS+cache"):
                saf = row["saf"][config]
                assert set(saf) == {"read", "write", "total"}
                assert saf["total"] >= 0
