"""tools/bench_pairs.py: the paired-run arithmetic (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_clear_gain_on_a_higher_is_better_metric():
    parent = [100, 104, 98, 101, 99, 103, 100, 102, 97, 100]
    change = [p * 3 for p in parent]
    summary = bench_pairs.summarise(parent, change, higher_is_better=True)
    assert summary["wins"] == summary["pairs"] == 10
    assert summary["ratio"] == pytest.approx(3.0)
    assert summary["parent"] == [100, 99.25, 101.75]  # median, q1, q3
    assert summary["gain"]


def test_noise_is_not_a_gain_and_ties_count_for_neither_side():
    parent = [100, 110, 90, 105, 95, 100, 108, 92, 100, 100]
    change = [101, 109, 91, 104, 96, 100, 107, 93, 100, 101]
    summary = bench_pairs.summarise(parent, change, higher_is_better=True)
    assert summary["pairs"] == 8 and summary["wins"] == 5
    assert not summary["gain"]


def test_lower_is_better_flips_the_wins():
    summary = bench_pairs.summarise([2.0, 2.1, 1.9, 2.0], [1.0, 1.1, 0.9, 1.0], False)
    assert summary["wins"] == 4 and summary["gain"]
    assert bench_pairs.summarise([1.0] * 4, [2.0] * 4, False)["wins"] == 0


def test_export_of_a_ref_contains_the_benchmark_entry_point(tmp_path):
    if not (bench_pairs.REPO / ".git").exists():
        pytest.skip("not a git checkout")
    bench_pairs.export("HEAD", tmp_path / "parent")
    assert (tmp_path / "parent" / "bench" / "run.py").is_file()
    assert not (tmp_path / "parent" / ".git").exists()
