"""tools/bench_pairs.py: the paired-run arithmetic (no benchmark is run)."""

import importlib.util
import json
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


def test_regressed_marks_a_median_worse_by_more_than_the_bound():
    parent = [100.0, 102.0, 98.0, 100.0]
    assert not bench_pairs.summarise(parent, [80.0] * 4, True, bound=0.25)["regressed"]
    assert bench_pairs.summarise(parent, [74.0] * 4, True, bound=0.25)["regressed"]
    # lower is better: worse means larger
    assert bench_pairs.summarise([2.0] * 4, [2.2] * 4, False, bound=0.08)["regressed"]
    assert not bench_pairs.summarise([2.0] * 4, [1.0] * 4, False, bound=0.08)["regressed"]
    assert not bench_pairs.summarise(parent, [1.0] * 4, True)["regressed"]  # no bound given


def test_unresolved_marks_a_spread_wider_than_the_bound_unless_the_runs_are_separated():
    steady = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0]
    wide = [100.0, 140.0, 70.0, 100.0, 130.0, 75.0]  # quartiles 81 and 122: > 25 %
    assert not bench_pairs.summarise(steady, steady[::-1], True, bound=0.25)["unresolved"]
    # either side's spread counts, and a flat median is then not "unchanged"
    assert bench_pairs.summarise(wide, steady, True, bound=0.25)["unresolved"]
    flat = bench_pairs.summarise(steady, wide, True, bound=0.25)
    assert flat["unresolved"] and not flat["regressed"] and flat["ratio"] == 1.0
    # winning every pair is not enough while the two sets of runs overlap ...
    won = bench_pairs.summarise(wide, [p + 50.0 for p in wide], True, bound=0.25)
    assert won["wins"] == 6 and won["unresolved"]  # 120 < 140
    # ... every run of the change has to read better than every run of the parent
    assert not bench_pairs.summarise(wide, [p + 71.0 for p in wide], True, bound=0.25)["unresolved"]
    assert bench_pairs.summarise(wide, [p + 70.0 for p in wide], True, bound=0.25)["unresolved"]
    lower = bench_pairs.summarise(wide, [p - 71.0 for p in wide], False, bound=0.25)
    assert lower["wins"] == 6 and not lower["unresolved"]
    assert bench_pairs.summarise(wide, [p + 71.0 for p in wide], False, bound=0.25)["unresolved"]
    assert not bench_pairs.summarise(wide, steady, True)["unresolved"]  # no bound given


def test_out_holds_every_completed_pair_when_a_later_run_fails(monkeypatch, tmp_path):
    runs = []

    def failing_in_pair_three(checkout, workload, seed, seconds):
        runs.append(checkout.name)
        if len(runs) == 8:  # the second side of pair 3, after the warm-up pair
            raise SystemExit("change/w: run failed")
        return {"ops_per_s": float(len(runs)), "setup_s": 1.0, "peak_rss_mib": 100.0,
                "cpu_s": 1.0}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "run_once", failing_in_pair_three)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit, match="run failed"):
        bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "5", "--out", str(out)])
    kept = json.loads(out.read_text())["workloads"]["w"]
    assert [r["ops_per_s"] for r in kept["runs"]["parent"]] == [3.0, 6.0]
    assert [r["ops_per_s"] for r in kept["runs"]["change"]] == [4.0, 5.0]
    assert "summary" not in kept  # of a finished workload only


def test_main_cycles_seeds_per_pair_and_prints_regressed(monkeypatch, capsys):
    """The whole tool over a fake benchmark: the change is 2x faster, needs
    20 % more memory (bound 8 %) and sets up in the same time."""
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        change = checkout.name == "change"
        return {
            "ops_per_s": (200.0 if change else 100.0) + seed % 7,
            "setup_s": 1.0,
            "peak_rss_mib": 120.0 if change else 100.0,
            "cpu_s": 2.0,
        }

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(
        ["--parent", "HEAD", "--workload", "w", "--pairs", "5", "--seed", "11", "12", "13"]
    ) == 0

    assert calls[:2] == [("parent", 11), ("change", 11)]  # the discarded warm-up
    pairs = [calls[i : i + 2] for i in range(2, len(calls), 2)]
    assert [{side for side, _seed in pair} for pair in pairs] == [{"parent", "change"}] * 5
    assert [[seed for _side, seed in pair] for pair in pairs] == [
        [11, 11], [12, 12], [13, 13], [11, 11], [12, 12]
    ]
    assert [pair[0][0] for pair in pairs] == ["parent", "change", "parent", "change", "parent"]

    verdicts = {
        line.split()[1]: line
        for line in capsys.readouterr().out.splitlines()
        if "change better" in line
    }
    assert "GAIN" in verdicts["ops_per_s"] and "REGRESSED" not in verdicts["ops_per_s"]
    assert "REGRESSED" in verdicts["peak_rss_mib"] and "GAIN" not in verdicts["peak_rss_mib"]
    assert "REGRESSED" not in verdicts["setup_s"] and "GAIN" not in verdicts["setup_s"]
    assert "GAIN" not in verdicts["cpu_s"]


def test_position_effect_is_taken_off_every_second_run():
    # The parent runs first in even pairs; whichever side runs second reads
    # 10 higher, and the change itself is 5 higher.
    parent = [100.0, 110.0, 100.0, 110.0]
    change = [115.0, 105.0, 115.0, 105.0]
    summary = bench_pairs.summarise(parent, change, higher_is_better=True)
    assert summary["position_effect"] == 10.0
    assert summary["without_position"] == [100.0, 105.0]


def test_cpu_s_counts_a_reaped_grandchild(tmp_path):
    """``cpu_s`` is the run's rusage delta over its reaped descendants: a
    benchmark whose daemon burns the CPU still shows it."""
    burn = "import time\nend = time.process_time() + 0.3\nwhile time.process_time() < end: pass"
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {burn!r}], check=True)\n"
        "print(json.dumps({'correct': True, 'failed': 0,"
        " 'metrics': {'ops_per_s': {'value': 1.0}}}))\n"
    )
    metrics = bench_pairs.run_once(tmp_path, "w", 1, 0.1)
    assert metrics["ops_per_s"] == 1.0
    assert metrics["cpu_s"] >= 0.3
