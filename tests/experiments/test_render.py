"""Text-rendering helper tests."""

from repro.experiments.render import format_table, hbar_chart, sparkline, step_cdf


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"


class TestHbarChart:
    def test_scaling(self):
        out = hbar_chart([("a", 10.0), ("b", 5.0)])
        a_line, b_line = out.splitlines()
        assert a_line.count("#") == 50
        assert b_line.count("#") == 25

    def test_empty(self):
        assert hbar_chart([], title="t") == "t"

    def test_zero_values(self):
        out = hbar_chart([("a", 0.0)])
        assert "0.00" in out


class TestStepCdf:
    def test_plot_dimensions(self):
        out = step_cdf([(0.0, 0.5), (1.0, 1.0)])
        lines = out.splitlines()
        assert len(lines) == 12 + 2  # rows + axis + labels

    def test_empty(self):
        assert "(empty)" in step_cdf([])


class TestSparkline:
    def test_length_capped(self):
        assert len(sparkline(list(range(500)))) == 72

    def test_constant_series(self):
        out = sparkline([3.0, 3.0, 3.0])
        assert len(out) == 3

    def test_empty(self):
        assert sparkline([]) == "(empty)"
