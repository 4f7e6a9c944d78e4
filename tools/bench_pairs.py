#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python tools/bench_pairs.py --parent <git-ref> --workload W [W ...]
                                [--change <git-ref>] [--pairs 10] [--seed 2027 ...]

Exports the parent commit (``git archive``) and the change — another ref,
or by default the working tree's tracked and unignored files — into two
fresh temporary directories, then runs ``bench/run.py --workload W --seed S
--seconds N --trace 0`` in each, alternating which side goes first, after
one discarded warm-up pair.  Several ``--seed`` values are cycled pair by
pair — both sides of a pair share the seed, so seeds vary between pairs
and never within one.  Besides the benchmark's own metrics every run reports
``cpu_s``: the user + system CPU time of the run and of every descendant
it reaped (the daemon and its workers), which a fixed amount of work
should hold steadier than wall-clock rates on a shared box.  Per
end-to-end metric of ``BENCHMARK.json``, and for ``cpu_s``, it prints both
medians with their quartiles, the ratio, and in how many pairs the change
was better; then the position effect — the median of (second run − first
run) within a pair — and both medians with it taken off every run that
went second.  ``GAIN`` marks a metric the change wins in at least nine
pairs in ten with medians further apart than the parent's interquartile
distance; ``REGRESSED`` one whose change median is worse than the
parent's by more than the metric's ``bound``; ``UNRESOLVED`` one where
either side's interquartile distance exceeds ``bound`` x the parent's
median, so the runs cannot say "unchanged" — unless every run of the
change beats every run of the parent.  ``--out`` is rewritten after every
completed pair, so a failed run loses only the pair it was part of.

It only *calls* the benchmark: nothing under ``bench/`` is imported or
edited, and both sides run their own checkout's copy of it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(ref, dest: Path) -> None:
    """``ref``'s tree — or, for ``None``, the working tree — into ``dest``."""
    dest.mkdir(parents=True)
    if ref is not None:
        archive = subprocess.run(
            ["git", "archive", ref], cwd=REPO, check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        cwd=REPO, check=True, capture_output=True,
    )
    for name in filter(None, listed.stdout.decode().split("\0")):
        if (REPO / name).is_file():  # listed but deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; the metrics of its last stdout line, plus ``cpu_s``
    (the run's and its reaped descendants' user + system CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        line = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        line = {"correct": False, "failed": 1}
    if done.returncode or not line["correct"] or line["failed"]:
        raise SystemExit(
            f"{checkout.name}/{workload}: run failed\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    metrics = {name: entry["value"] for name, entry in line["metrics"].items()}
    metrics["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return metrics


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarise(parent, change, higher_is_better: bool, bound=None) -> dict:
    """Medians, quartiles, ratio, wins and the section-8 verdicts for one
    metric over paired runs (``parent[i]`` ran beside ``change[i]``);
    ``bound`` is the fraction of the parent's median the change's may be
    worse by before it counts as regressed."""
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med, c_q1, c_q3 = quartiles(change)
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    decided = len(parent) - ties
    gain = (
        decided > 0
        and wins >= 0.9 * decided
        and sign * (c_med - p_med) > (p_q3 - p_q1)
    )
    regressed = bound is not None and sign * (p_med - c_med) > bound * p_med
    # Every run of the change reads better than every run of the parent.
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    unresolved = (
        bound is not None
        and max(p_q3 - p_q1, c_q3 - c_q1) > bound * p_med
        and not separated
    )
    # The parent runs first in even pairs: take the median (second - first)
    # off every run that went second.
    went_second = [i % 2 for i in range(len(parent))]
    effect = statistics.median(
        (p - c) if second else (c - p) for p, c, second in zip(parent, change, went_second)
    )
    return {
        "parent": [p_med, p_q1, p_q3], "change": [c_med, c_q1, c_q3],
        "ratio": c_med / p_med if p_med else float("nan"),
        "wins": wins, "pairs": decided, "gain": gain, "regressed": regressed,
        "unresolved": unresolved, "position_effect": effect,
        "without_position": [
            statistics.median(p - effect * second for p, second in zip(parent, went_second)),
            statistics.median(c - effect * (1 - second) for c, second in zip(change, went_second)),
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", default=None, help="git ref (default: the working tree)")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", default=[2027],
                        help="one or more; cycled per pair, shared by its two sides")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=None, help="write every run and the summary here")
    args = parser.parse_args(argv)

    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    metrics.append({"name": "cpu_s", "better": "lower"})
    report = {"args": vars(args), "workloads": {}}

    def save():
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, sides["parent"])
        export(args.change, sides["change"])
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            report["workloads"][workload] = {"runs": runs}
            for side in runs:  # warm-up: page cache, imports, CPU clocks
                run_once(sides[side], workload, args.seed[0], args.seconds)
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                seed = args.seed[pair % len(args.seed)]
                # Both sides before either is recorded: a failed run raises
                # here and leaves `runs`, and --out, holding whole pairs.
                done = {
                    side: run_once(sides[side], workload, seed, args.seconds) for side in order
                }
                for side in order:
                    runs[side].append(done[side])
                print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} " + "  ".join(
                    f"{side} {done[side][metrics[0]['name']]:.4g} cpu {done[side]['cpu_s']:.3g} s"
                    for side in order
                ), flush=True)
                save()
            summary = {
                m["name"]: summarise(
                    [r[m["name"]] for r in runs["parent"]],
                    [r[m["name"]] for r in runs["change"]],
                    m["better"] == "higher",
                    m.get("bound"),
                )
                for m in metrics
            }
            report["workloads"][workload]["summary"] = summary
            save()
            for m in metrics:
                s = summary[m["name"]]
                print(
                    f"{workload:18s} {m['name']:13s} "
                    "parent {:.4g} [{:.4g}, {:.4g}]  change {:.4g} [{:.4g}, {:.4g}]  ".format(
                        *s["parent"], *s["change"])
                    + f"ratio {s['ratio']:.3f}  change better {s['wins']}/{s['pairs']}"
                    + ("  GAIN" if s["gain"] else "")
                    + ("  REGRESSED" if s["regressed"] else "")
                    + ("  UNRESOLVED" if s["unresolved"] else "")
                )
                print(
                    f"{'':18s} {'':13s} position effect (second - first) "
                    "{:+.4g}; without it parent {:.4g}  change {:.4g}".format(
                        s["position_effect"], *s["without_position"])
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
