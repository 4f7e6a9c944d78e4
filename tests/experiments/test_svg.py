"""SVG chart emitter tests."""

import xml.dom.minidom

import pytest

from repro.experiments.charts import RENDERERS, render_svg
from repro.experiments.svg import SvgCanvas, _nice_ticks, bar_chart, grouped_bar_chart, line_chart


def assert_valid_svg(svg: str) -> None:
    doc = xml.dom.minidom.parseString(svg)
    assert doc.documentElement.tagName == "svg"


class TestSvgCanvas:
    def test_empty_canvas_is_valid(self):
        assert_valid_svg(SvgCanvas().to_string())

    def test_elements_serialized(self):
        canvas = SvgCanvas(100, 100)
        canvas.rect(0, 0, 10, 10, "#fff")
        canvas.line(0, 0, 10, 10)
        canvas.polyline([(0, 0), (5, 5)], "#000")
        canvas.text(5, 5, "hi & bye")
        svg = canvas.to_string()
        assert_valid_svg(svg)
        assert "hi &amp; bye" in svg
        assert "<rect" in svg and "<polyline" in svg

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SvgCanvas(0, 10)


class TestNiceTicks:
    def test_covers_peak(self):
        for peak in (0.7, 3.0, 47.0, 912.0):
            ticks = _nice_ticks(peak)
            assert ticks[0] == 0.0
            assert ticks[-1] >= peak

    def test_zero_peak(self):
        assert _nice_ticks(0.0) == [0.0, 1.0]

    def test_tick_count_bounded(self):
        assert len(_nice_ticks(123.0)) <= 9


class TestCharts:
    def test_grouped_bar_chart(self):
        svg = grouped_bar_chart(
            [("a", [1.0, 2.0]), ("b", [0.5, 3.0])],
            series_labels=["x", "y"],
            title="T",
            reference_line=1.0,
        )
        assert_valid_svg(svg)
        assert "T" in svg

    def test_grouped_bar_chart_validation(self):
        with pytest.raises(ValueError):
            grouped_bar_chart([], ["x"], "T")
        with pytest.raises(ValueError, match="expected 2"):
            grouped_bar_chart([("a", [1.0])], ["x", "y"], "T")

    def test_line_chart(self):
        svg = line_chart(
            [("s1", [(0.0, 0.0), (1.0, 1.0)]), ("s2", [(0.0, 1.0), (1.0, 0.5)]), ("s3", [])],
            title="Lines",
            x_label="x",
            y_label="y",
        )
        assert_valid_svg(svg)
        assert "s3" not in svg  # an empty series draws no line and no legend entry

    def test_line_chart_flat_series(self):
        assert_valid_svg(line_chart([("s", [(0.0, 2.0), (1.0, 2.0)])], title="flat"))

    def test_line_chart_validation(self):
        with pytest.raises(ValueError):
            line_chart([], title="T")
        with pytest.raises(ValueError):
            line_chart([("s", [])], title="T")

    def test_bar_chart(self):
        assert_valid_svg(bar_chart([("a", 0.5), ("b", 0.1)], title="Bars"))


class TestRenderSvg:
    def test_unsupported_exhibit_skipped(self, tmp_path):
        assert render_svg("fig6", {}, tmp_path) == []

    def test_fig8_rendering(self, tmp_path):
        paths = render_svg("fig8", {"w1": 0.05, "w2": 0.001}, tmp_path)
        assert [p.name for p in paths] == ["fig8.svg"]
        assert_valid_svg(paths[0].read_text())

    def test_fig11_rendering(self, tmp_path):
        data = {
            "a": {"family": "msr", "saf": {
                c: {"total": 1.0} for c in
                ("LS", "LS+defrag", "LS+prefetch", "LS+cache")
            }},
            "b": {"family": "cloudphysics", "saf": {
                c: {"total": 2.0} for c in
                ("LS", "LS+defrag", "LS+prefetch", "LS+cache")
            }},
        }
        paths = render_svg("fig11", data, tmp_path)
        assert sorted(p.name for p in paths) == [
            "fig11_cloudphysics.svg",
            "fig11_msr.svg",
        ]
        for path in paths:
            assert_valid_svg(path.read_text())

    def test_every_registered_renderer_is_an_exhibit(self):
        from repro.experiments.registry import EXHIBITS

        assert set(RENDERERS) <= set(EXHIBITS)
