"""Integration tests: the paper's qualitative results must hold on the
synthetic archetypes (DESIGN.md §4 "shapes").

These replay all 21 workloads under the five configurations once
(module-scoped fixture, ~1 minute) and assert every §V claim.
"""

import pytest

from repro.analysis.fragmentation import fraction_of_fragments_in_top_reads
from repro.analysis.misorder import misorder_rate
from repro.analysis.popularity import FragmentPopularityRecorder
from repro.core.config import LS, NOLS, PAPER_CONFIGS, build_translator
from repro.core.metrics import seek_amplification
from repro.core.recorders import FragmentationRecorder
from repro.core.simulator import Simulator, replay
from repro.workloads import CLOUDPHYSICS_WORKLOADS, MSR_WORKLOADS, TABLE1, synthesize_workload

SEED = 42


@pytest.fixture(scope="module")
def saf_matrix():
    """Total SAF per (workload, config), plus each trace, computed once."""
    matrix = {}
    traces = {}
    for name in TABLE1:
        trace = synthesize_workload(name, seed=SEED)
        traces[name] = trace
        matrix[name] = saf_by_config(trace)
    return matrix, traces


def saf_by_config(trace):
    baseline = replay(trace, build_translator(trace, NOLS)).stats
    return {
        config.name: seek_amplification(
            replay(trace, build_translator(trace, config)).stats, baseline
        ).total
        for config in PAPER_CONFIGS
    }


def expectation_failures(name, saf):
    """Every recorded §V expectation of ``name`` that ``saf`` contradicts.

    The prefetch bands are the synthetic substitution's structural floor,
    not the paper's "<1 %": look-ahead always removes the seek back from a
    log fragment into the following hole (EXPERIMENTS.md, deviation #4).
    """
    expect, ls = TABLE1[name].expect, saf["LS"]
    best = min(saf.values())
    others_best = min(v for k, v in saf.items() if k != "LS+cache")
    gain = ls / saf["LS+prefetch"] if saf["LS+prefetch"] else float("inf")
    checks = {
        "ls_amplifies": (ls > 1.0) == expect.ls_amplifies,
        "prefetch_never_hurts": saf["LS+prefetch"] <= ls * 1.02,
        "cache_never_hurts": saf["LS+cache"] <= ls * 1.02,
        "cache_is_best": (
            saf["LS+cache"] <= best * 1.25 + 0.02
            if expect.cache_is_best
            else saf["LS+cache"] > others_best
        ),
        "defrag_hurts": not expect.defrag_hurts or saf["LS+defrag"] > ls * 1.02,
        "prefetch_gain": (
            expect.prefetch_gain_large is None
            or (gain >= 1.30 if expect.prefetch_gain_large else gain <= 1.50)
        ),
    }
    return [f"{name}.{check}: {saf}" for check, held in checks.items() if not held]


class TestArchetypeValidation:
    def test_every_archetype_passes_its_expectations(self, saf_matrix):
        """Every Table-I archetype satisfies all its recorded paper
        expectations."""
        matrix, _ = saf_matrix
        failures = [f for name in TABLE1 for f in expectation_failures(name, matrix[name])]
        assert not failures, "; ".join(failures)


class TestSeedRobustness:
    def test_shapes_hold_at_a_different_seed(self):
        """The reproduction must not be an artifact of one RNG seed: every
        archetype's expectations also hold at seed 7 (half scale keeps the
        runtime bounded)."""
        failures = [
            f
            for name in TABLE1
            for f in expectation_failures(
                name, saf_by_config(synthesize_workload(name, seed=7, scale=0.5))
            )
        ]
        assert not failures, "; ".join(failures)


class TestFig11MSR:
    def test_msr_saf_below_one_except_usr1_hm1(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in MSR_WORKLOADS:
            expected_amplified = TABLE1[name].expect.ls_amplifies
            assert (matrix[name]["LS"] > 1.0) == expected_amplified, (
                f"{name}: LS SAF {matrix[name]['LS']:.2f} contradicts the "
                f"paper's Fig. 11a grouping"
            )

    def test_usr1_and_hm1_amplify(self, saf_matrix):
        matrix, _ = saf_matrix
        assert matrix["usr_1"]["LS"] > 1.0
        assert matrix["hm_1"]["LS"] > 1.0


class TestFig11CloudPhysics:
    def test_majority_amplify(self, saf_matrix):
        matrix, _ = saf_matrix
        amplified = sum(1 for name in CLOUDPHYSICS_WORKLOADS if matrix[name]["LS"] > 1.0)
        assert amplified > len(CLOUDPHYSICS_WORKLOADS) / 2

    def test_w91_is_worst(self, saf_matrix):
        matrix, _ = saf_matrix
        w91 = matrix["w91"]["LS"]
        assert w91 == max(matrix[name]["LS"] for name in CLOUDPHYSICS_WORKLOADS)
        assert w91 > 2.0  # "huge" amplification (paper: ~3.7)


class TestDefrag:
    def test_defrag_hurts_where_paper_says(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in ("src2_2", "w93", "w20"):
            assert matrix[name]["LS+defrag"] > matrix[name]["LS"] * 1.02, (
                f"{name}: defrag should worsen SAF "
                f"({matrix[name]['LS+defrag']:.2f} vs {matrix[name]['LS']:.2f})"
            )

    def test_defrag_helps_rescan_heavy_workloads(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in ("w91", "w64", "w95"):
            assert matrix[name]["LS+defrag"] < matrix[name]["LS"]

    def test_defrag_best_improvement_roughly_paper_scale(self, saf_matrix):
        # Paper headline: up to ~4x SAF improvement from defrag.
        matrix, _ = saf_matrix
        best = max(matrix[name]["LS"] / matrix[name]["LS+defrag"] for name in TABLE1)
        assert 1.5 <= best <= 6.0


class TestPrefetch:
    def test_prefetch_never_hurts(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in TABLE1:
            assert matrix[name]["LS+prefetch"] <= matrix[name]["LS"] * 1.02

    def test_large_gain_workloads(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in ("w84", "w95", "w91"):
            gain = matrix[name]["LS"] / matrix[name]["LS+prefetch"]
            assert gain >= 1.30, f"{name}: prefetch gain {gain:.2f} not large"

    def test_marginal_gain_workloads(self, saf_matrix):
        # 1.50 is the synthetic substitution's structural floor, not the
        # paper's "<1 %" — see EXPERIMENTS.md deviations #4.
        matrix, _ = saf_matrix
        for name in ("usr_1", "hm_1", "w55", "w33"):
            gain = matrix[name]["LS"] / matrix[name]["LS+prefetch"]
            assert gain <= 1.50, f"{name}: prefetch gain {gain:.2f} not marginal"

    def test_best_prefetch_gain_roughly_paper_scale(self, saf_matrix):
        # Paper headline: up to ~3.7x from prefetching.
        matrix, _ = saf_matrix
        best = max(matrix[name]["LS"] / matrix[name]["LS+prefetch"] for name in TABLE1)
        assert 2.0 <= best <= 6.0


class TestSelectiveCache:
    def test_cache_never_hurts(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in TABLE1:
            assert matrix[name]["LS+cache"] <= matrix[name]["LS"] * 1.02

    def test_cache_best_or_near_best_where_paper_says(self, saf_matrix):
        matrix, _ = saf_matrix
        for name, entry in TABLE1.items():
            if not entry.expect.cache_is_best:
                continue
            best = min(matrix[name].values())
            assert matrix[name]["LS+cache"] <= best * 1.25 + 0.02, (
                f"{name}: cache SAF {matrix[name]['LS+cache']:.2f} should be "
                f"(near-)lowest; best is {best:.2f}"
            )

    def test_cache_not_best_for_usr1_src22(self, saf_matrix):
        matrix, _ = saf_matrix
        for name in ("usr_1", "src2_2"):
            others = [
                value
                for key, value in matrix[name].items()
                if key != "LS+cache"
            ]
            assert matrix[name]["LS+cache"] > min(others), (
                f"{name}: paper says caching is NOT the best technique here"
            )

    def test_w91_cache_below_one(self, saf_matrix):
        # Paper: caching takes w91 from 3.7 to 0.2.  Our archetype lands
        # below 1.0 with a >3x improvement (documented in EXPERIMENTS.md).
        matrix, _ = saf_matrix
        assert matrix["w91"]["LS+cache"] < 1.0
        assert matrix["w91"]["LS"] / matrix["w91"]["LS+cache"] > 3.0


class TestFig2SeekCounts:
    def test_ls_write_seeks_collapse(self, saf_matrix):
        _, traces = saf_matrix
        for name in ("usr_0", "w84", "src2_2"):
            trace = traces[name]
            nols = replay(trace, build_translator(trace, NOLS)).stats
            ls = replay(trace, build_translator(trace, LS)).stats
            assert ls.write_seeks < nols.write_seeks / 10


class TestFig4DistanceSpread:
    def test_ls_spreads_distances_beyond_window(self, saf_matrix):
        from repro.analysis.distances import fraction_within
        from repro.core.recorders import SeekLogRecorder

        _, traces = saf_matrix
        for name in ("src2_2", "usr_0", "w84", "w64"):
            trace = traces[name]
            nols_rec, ls_rec = SeekLogRecorder(), SeekLogRecorder()
            Simulator([nols_rec]).run(trace, build_translator(trace, NOLS))
            Simulator([ls_rec]).run(trace, build_translator(trace, LS))
            window_gib = 0.25
            assert fraction_within(ls_rec.distances, window_gib) <= (
                fraction_within(nols_rec.distances, window_gib) + 1e-9
            ), name


class TestFig5Concentration:
    def test_fragments_concentrate_in_few_reads(self, saf_matrix):
        _, traces = saf_matrix
        for name in ("usr_0", "hm_1", "w20", "w36"):
            recorder = FragmentationRecorder()
            trace = traces[name]
            Simulator([recorder]).run(trace, build_translator(trace, LS))
            share = fraction_of_fragments_in_top_reads(recorder.read_fragments, 0.2)
            assert share >= 0.25, f"{name}: top-20% share {share:.2f} not skewed"


class TestFig8Misorder:
    def test_high_misorder_workloads(self, saf_matrix):
        _, traces = saf_matrix
        # Paper: ~1/20 for src2_2, ~1/25 for w106.
        assert 0.02 <= misorder_rate(traces["src2_2"]) <= 0.10
        assert 0.02 <= misorder_rate(traces["w106"]) <= 0.10

    def test_low_misorder_workloads(self, saf_matrix):
        _, traces = saf_matrix
        for name in ("usr_1", "w93", "w76"):
            assert misorder_rate(traces[name]) < 0.005


class TestFig10CacheSizing:
    def test_cache_friendly_workloads_fit_tens_of_mb(self, saf_matrix):
        _, traces = saf_matrix
        for name in ("hm_1", "w55", "w106"):
            recorder = FragmentPopularityRecorder()
            trace = traces[name]
            Simulator([recorder]).run(trace, build_translator(trace, LS))
            curve = recorder.curve()
            assert curve.cache_mib_for_access_share(0.8) <= 64.0, name

    def test_cache_unfriendly_working_sets_exceed_64mb(self, saf_matrix):
        _, traces = saf_matrix
        for name in ("usr_1", "src2_2"):
            recorder = FragmentPopularityRecorder()
            trace = traces[name]
            Simulator([recorder]).run(trace, build_translator(trace, LS))
            curve = recorder.curve()
            assert curve.cumulative_mib[-1] > 64.0, name
