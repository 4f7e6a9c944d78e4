"""Exhibit-runner tests.

The scenario exhibits (fig6, fig9) run at full fidelity; the trace-driven
exhibits run at a reduced scale so this file stays fast.  The full-scale
shape assertions live in tests/integration/test_paper_shapes.py.
"""

import json

import pytest

from repro.experiments import fig6, fig8, fig9, table1
from repro.experiments.common import downsample, save_json
from repro.experiments.registry import EXHIBITS, resolve_names
from repro.experiments.runner import run_exhibits
from repro.experiments.sweep import SweepEngine

SMALL = dict(seed=42, scale=0.1)


class TestRegistry:
    def test_all_exhibits_registered(self):
        paper = {
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
        }
        ablations = {
            "ablation_cache",
            "ablation_defrag",
            "ablation_prefetch",
            "ablation_cleaning",
            "ablation_multifrontier",
            "ablation_combined",
            "taxonomy",
        }
        assert set(EXHIBITS) == paper | ablations

    def test_unknown_exhibit(self):
        with pytest.raises(KeyError, match="unknown exhibit"):
            resolve_names(["fig99"])


class TestScenarioExhibits:
    def test_fig6_matches_paper_walkthrough(self):
        data = fig6.run(SweepEngine(**SMALL))
        assert data["without_defrag"]["rd_2_5_first"]["read_seeks"] == 4
        assert data["with_defrag"]["rd_2_5_again"]["read_seeks"] <= 1
        assert data["with_defrag"]["rd_1_2"]["read_seeks"] == 2

    def test_fig9_matches_paper_walkthrough(self):
        data = fig9.run(SweepEngine(**SMALL))
        assert data["without_prefetch"]["read_seeks"] == 5
        assert data["with_prefetch"]["read_seeks"] == 3


class TestTraceDrivenExhibits:
    def test_table1_rows_for_all_workloads(self):
        data = table1.run(SweepEngine(**SMALL))
        assert len(data) == 21
        assert data["w91"]["paper"]["read_count"] == 3147384
        assert data["w91"]["synthetic"]["read_count"] > 0

    def test_fig8_rates_in_range(self):
        data = fig8.run(SweepEngine(**SMALL))
        assert len(data) == 21
        assert all(0.0 <= rate <= 1.0 for rate in data.values())

    def test_json_dump(self, tmp_path):
        run_exhibits(["fig6"], out_dir=str(tmp_path), echo=lambda s: None)
        data = fig6.run(SweepEngine(**SMALL))
        assert json.loads((tmp_path / "fig6.json").read_text()) == data


class TestCommonHelpers:
    def test_downsample_short_series(self):
        assert downsample([1, 2, 3]) == [1, 2, 3]

    def test_downsample_long_series(self):
        series = list(range(1000))
        out = downsample(series)
        assert len(out) == 200
        assert out[0] == 0 and out[-1] == 999

    def test_save_json_disabled(self):
        assert save_json("x", {}, None) is None
