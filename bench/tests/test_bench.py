"""Self-test of the benchmark: ``python -m pytest bench/tests -q``.

Runs ``bench/run.py`` at a fraction of its nominal size (seconds, not
minutes) and checks the benchmark's own promises: names and units agree
with ``BENCHMARK.json``, exact counters repeat, the correctness gate bites,
spans nest, and the compare tool refuses what it must.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

SECONDS = "0.5"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )


def full_run(tmp: Path, seed: int, tag: str) -> dict:
    out = tmp / f"result-{tag}.json"
    done = bench("--seed", str(seed), "--seconds", SECONDS, "--trace", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return {"stdout": done.stdout, "result": json.loads(out.read_text()), "path": out}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    first = full_run(tmp, 42, "a")
    trace = json.loads((BENCH / "out" / "trace.json").read_text())
    return {
        "a": first,
        "trace": trace,
        "b": full_run(tmp, 42, "b"),
        "other_seed": full_run(tmp, 43, "c"),
    }


def declared() -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def test_benchmark_json_is_generated_from_spec_and_within_the_contract():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark == spec.benchmark_json()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in benchmark["workloads"]] + list(declared())
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(u) for u in declared().values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16 and len(benchmark["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in benchmark["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert (4 + 22 * len(benchmark["workloads"])) * 37 <= 3420


def test_every_declared_metric_is_printed_with_its_unit_and_vice_versa(runs):
    printed = {}
    for line in runs["a"]["stdout"].splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in spec.WORKLOADS and fields[1] != "check":
            printed.setdefault(fields[1], set()).add(fields[3])
    assert {name: {unit} for name, unit in declared().items()} == printed


def test_each_workload_measures_the_metrics_spec_assigns_to_it(runs):
    for run in runs["a"]["result"]["runs"]:
        assigned = lambda metrics: {  # noqa: E731
            m.name for m in metrics if run["workload"] in m.workloads
        }
        if run["trace"]:
            assert set(run["metrics"]) == assigned(spec.END_TO_END + spec.PER_LAYER)
        else:  # plus whatever layer numbers the window yields for free
            assert assigned(spec.END_TO_END) <= set(run["metrics"])


def test_single_workload_run_ends_with_the_driver_line(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench("--workload", "replay_read_hot", "--seed", "5",
                     "--seconds", SECONDS, "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in benchmark[section]
        }
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in line["metrics"].values())


def exact_counters(result: dict) -> dict:
    exact = {m.name for m in spec.PER_LAYER if m.exact}
    return {
        (run["workload"], name): value
        for run in result["runs"] if run["trace"]
        for name, value in run["metrics"].items() if name in exact
    }


def test_exact_counters_repeat_for_a_seed_and_move_with_the_seed(runs):
    first = exact_counters(runs["a"]["result"])
    assert first and first == exact_counters(runs["b"]["result"])
    assert first != exact_counters(runs["other_seed"]["result"])
    digests = lambda r: [run["digests"] for run in r["result"]["runs"]]  # noqa: E731
    assert digests(runs["a"]) == digests(runs["b"]) != digests(runs["other_seed"])


def test_seed_42_is_gated_by_golden_digests_and_a_perturbed_one_fails(runs, tmp_path):
    gated = [
        check for run in runs["a"]["result"]["runs"] for check in run["checks"]
        if "42.json" in check["check"]
    ]
    assert len(gated) >= len(spec.WORKLOADS) and all(c["ok"] for c in gated)

    golden = json.loads((BENCH / "golden" / "42.json").read_text())
    key = f"replay_read_hot@{float(SECONDS):g}s"
    golden[key]["stats.ls"] = "0" * 64
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    done = bench("--workload", "replay_read_hot", "--seed", "42", "--seconds", SECONDS,
                 "--golden", str(perturbed))
    assert done.returncode != 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_spans_nest_and_self_times_are_not_negative(runs):
    spans = runs["trace"]["spans"]
    assert {s["workload"] for s in spans} == set(spec.WORKLOADS)
    slack = 1e-6
    covered = [0.0] * len(spans)
    for span in spans:
        assert set(span) == {"name", "start", "end", "parent", "workload"}
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["workload"] == span["workload"]
            assert parent["start"] - slack <= span["start"]
            assert span["end"] <= parent["end"] + slack
            covered[span["parent"]] += span["end"] - span["start"]
    for span, inner in zip(spans, covered):
        assert span["end"] - span["start"] - inner >= -slack * 100, span["name"]


def test_compare_accepts_a_result_against_itself_and_refuses_another_seed(runs):
    same = bench("--compare", str(runs["a"]["path"]), str(runs["a"]["path"]))
    assert same.returncode == 0, same.stdout + same.stderr
    assert " ok" in same.stdout and "regressed" not in same.stdout
    other = bench("--compare", str(runs["a"]["path"]), str(runs["other_seed"]["path"]))
    assert other.returncode == 2 and "seed differs" in other.stderr


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "exhibits", "--seed", "1", "--seconds", SECONDS, "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
