"""Ablation-exhibit tests (reduced scale)."""

import pytest

from repro.experiments import ablations
from repro.experiments.registry import EXHIBITS
from repro.experiments.sweep import SweepEngine

SMALL = SweepEngine(seed=42, scale=0.15)  # shared: tests reuse its rows


class TestRegistration:
    def test_ablations_registered(self):
        for name in (
            "ablation_cache",
            "ablation_defrag",
            "ablation_prefetch",
            "ablation_cleaning",
            "ablation_multifrontier",
            "taxonomy",
        ):
            assert name in EXHIBITS


class TestCacheAblation:
    def test_saf_non_increasing_in_capacity(self):
        data = ablations.run_cache(SMALL)
        for name, row in data.items():
            assert row["4MB"] >= row["64MB"] - 1e-9, name
            assert row["64MB"] >= row["256MB"] - 1e-9, name

    def test_cache_never_exceeds_plain_ls_much(self):
        data = ablations.run_cache(SMALL)
        for name, row in data.items():
            assert row["256MB"] <= row["LS"] * 1.05, name


class TestDefragAblation:
    def test_grid_complete(self):
        data = ablations.run_defrag(SMALL)
        assert set(data) == {"w91", "w20"}
        for row in data.values():
            assert len(row["grid"]) == 9

    def test_stricter_throttles_approach_plain_ls(self):
        data = ablations.run_defrag(SMALL)
        for name, row in data.items():
            # N=8,k=4 defragments far less than N=2,k=1: its SAF must sit
            # closer to plain LS.
            loose_gap = abs(row["grid"]["N2k1"] - row["LS"])
            strict_gap = abs(row["grid"]["N8k4"] - row["LS"])
            assert strict_gap <= loose_gap + 0.15, name


class TestPrefetchAblation:
    def test_windows_reported(self):
        data = ablations.run_prefetch(SMALL)
        assert set(data) == {"w91", "hm_1"}
        for row in data.values():
            assert all(f"{w:g}KB" in row for w in (64.0, 128.0, 256.0, 512.0))

    def test_w91_benefits_more_than_hm1(self):
        data = ablations.run_prefetch(SMALL)
        gain_w91 = data["w91"]["LS"] / data["w91"]["256KB"]
        gain_hm1 = data["hm_1"]["LS"] / data["hm_1"]["256KB"]
        assert gain_w91 > gain_hm1


class TestCleaningAblation:
    def test_waf_decreases_with_overprovisioning(self):
        data = ablations.run_cleaning(SMALL)
        wafs = [data[z]["waf"] for z in ("12", "16", "24", "40")]
        assert wafs[0] >= wafs[-1]
        assert all(w >= 1.0 for w in wafs)

    def test_cleaning_seeks_decrease(self):
        data = ablations.run_cleaning(SMALL)
        assert data["12"]["cleaning_seeks"] >= data["40"]["cleaning_seeks"]


class TestMultifrontierAblation:
    def test_dual_frontier_pays_switch_seeks(self):
        data = ablations.run_multifrontier(SMALL)
        assert data["dual"]["write_seeks"] > data["single"]["write_seeks"]
        assert data["dual"]["frontier_switches"] > 0

    def test_hot_and_cold_both_used(self):
        data = ablations.run_multifrontier(SMALL)
        assert data["dual"]["hot_writes"] > 0
        assert data["dual"]["cold_writes"] > 0


class TestTaxonomy:
    def test_all_workloads_classified(self):
        data = ablations.run_taxonomy(SMALL)
        assert len(data) == 21
        for row in data.values():
            assert row["measured"] in (
                "log-friendly",
                "log-agnostic",
                "log-sensitive",
            )
            assert row["predicted"] in ("log-friendly", "log-sensitive")

    def test_prediction_mostly_agrees(self):
        data = ablations.run_taxonomy(SMALL)
        clear = [row for row in data.values() if row["measured"] != "log-agnostic"]
        agree = sum(1 for row in clear if row["measured"] == row["predicted"])
        assert agree >= int(0.75 * len(clear))


class TestCombinedAblation:
    def test_combined_never_worse_than_plain_ls(self):
        data = ablations.run_combined(SMALL)
        for name, row in data.items():
            assert row["combined"] <= row["ls"] * 1.05, name

    def test_combined_mostly_matches_best_single(self):
        data = ablations.run_combined(SMALL)
        wins = sum(
            1
            for row in data.values()
            if row["combined"] <= row["best_single"] + 0.05
        )
        assert wins >= int(0.7 * len(data))

    def test_best_single_names_valid(self):
        data = ablations.run_combined(SMALL)
        for row in data.values():
            assert row["best_single_name"] in (
                "LS+defrag",
                "LS+prefetch",
                "LS+cache",
            )
