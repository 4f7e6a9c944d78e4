"""``run.py --compare A.json B.json``: is B worse than A, metric by metric?

Both files are results written by ``run.py --out`` (one run, or every
workload, or ``--runs N`` of each).  One row per (metric, workload) with
both medians, the bound, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the runs cannot
  tell — unless every run of B reads better than every run of A;
* ``changed`` — a count that must repeat exactly (≡) did not.

Numbers from different machines, seeds, run lengths or flush policies are
not comparable, and the tool refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import spec

_STATIC = ("nproc", "cpu_model", "governor", "python", "numpy", "seed", "seconds", "flush_policy")
_FSYNC = "machine.fsync_ms"


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        result = json.load(handle)
    runs = result["runs"] if "runs" in result else [result]
    return [run for run in runs if "metrics" in run]


def _same_machine(runs_a: List[dict], runs_b: List[dict]) -> str:
    """Empty when comparable, otherwise why not."""
    prints = [run["fingerprint"] for run in runs_a + runs_b]
    for field in _STATIC:
        values = {json.dumps(p.get(field)) for p in prints}
        if len(values) > 1:
            return f"{field} differs: {sorted(values)}"
    fsync_a = statistics.median(r["fingerprint"][_FSYNC] for r in runs_a)
    fsync_b = statistics.median(r["fingerprint"][_FSYNC] for r in runs_b)
    if max(fsync_a, fsync_b) > 2 * min(fsync_a, fsync_b):
        return f"{_FSYNC} differs more than 2x: {fsync_a:.3f} vs {fsync_b:.3f}"
    return ""


def _spread(values: List[float]) -> float:
    """Interquartile range (absolute)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric: spec.Metric, a: List[float], b: List[float]) -> Tuple[str, float]:
    """``(verdict, how much worse B's median is)`` — as a share of A's median,
    or as an absolute difference for absolute bounds."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    scale = 1.0 if metric.absolute or med_a == 0 else abs(med_a)
    worse = sign * (med_b - med_a) / scale
    if metric.exact:
        return ("ok" if len(set(a) | set(b)) == 1 else "changed"), worse
    if metric.bound is None:
        return "-", worse
    if max(_spread(a), _spread(b)) / scale > metric.bound:
        b_always_better = max(b) < min(a) if metric.better == "lower" else min(b) > max(a)
        return ("ok" if b_always_better else "unresolved"), worse
    return ("regressed" if worse > metric.bound else "ok"), worse


def _by_workload(runs: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values; per-layer metrics only from ledger runs."""
    table: Dict[str, Dict[str, List[float]]] = {}
    layer_names = {m.name for m in spec.PER_LAYER}
    for run in runs:
        for name, value in run["metrics"].items():
            if (name in layer_names) != bool(run["trace"]):
                continue
            table.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return table


def main(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    if not runs_a or not runs_b:
        print("compare: a result holds no completed run", file=sys.stderr)
        return 2
    refusal = _same_machine(runs_a, runs_b)
    if refusal:
        print(f"compare: refusing, results are not comparable — {refusal}", file=sys.stderr)
        return 2
    table_a, table_b = _by_workload(runs_a), _by_workload(runs_b)
    print(f"{'workload':18s} {'metric':46s} {'A median':>14s} {'B median':>14s} "
          f"{'unit':9s} {'worse by':>9s} {'bound':>7s} verdict")
    regressed = 0
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END + spec.PER_LAYER:
            a = table_a.get(workload, {}).get(metric.name)
            b = table_b.get(workload, {}).get(metric.name)
            if not a or not b:
                continue
            word, worse = verdict(metric, a, b)
            regressed += word in ("regressed", "changed")
            bound = "" if metric.bound is None else (
                f"{metric.bound:+.2f}" if metric.absolute else f"{metric.bound:.0%}"
            )
            print(
                f"{workload:18s} {metric.name:46s} {statistics.median(a):14.6g} "
                f"{statistics.median(b):14.6g} {metric.unit:9s} "
                f"{worse:+9.3f} {bound:>7s} {word}  (n={len(a)},{len(b)})"
            )
    return 1 if regressed else 0
