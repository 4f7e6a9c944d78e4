#!/usr/bin/env python3
"""The repository benchmark.  One command, every metric by name.

    python bench/run.py [--seed 42] [--trace] [--runs N] [--out bench/out/result.json]

runs each of the four workloads in a fresh subprocess (so ``ru_maxrss`` is
per workload and no in-process cache leaks from one to the next), prints
every metric with its unit, checks the outputs for correctness, and exits
non-zero if any check fails.  ``--trace`` adds a ledger run per workload
(per-layer metrics, spans in ``bench/out/trace.json``).

    python bench/run.py --workload W --seed N --seconds S --trace 0|1

is one run of one workload in this process; its last line of output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) — the
form the benchmark driver consumes.

    python bench/run.py --compare A.json B.json

compares two results written by ``--out``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness
import spec

if not (harness.SRC_DIR / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: the program under test is missing ({harness.SRC_DIR}/repro)")
sys.path.insert(0, str(harness.SRC_DIR))


def _workload_function(name: str):
    if name in spec.SERVE:
        from serve import run_serve

        return run_serve
    import offline

    return {"exhibits": offline.run_exhibits, "replay_read_hot": offline.run_replay}[name]


def run_one(args) -> dict:
    """Run one workload here; returns its full result."""
    golden = Path(args.golden) if args.golden else (
        harness.BENCH_DIR / "golden" / f"{args.seed}.json"
    )
    run = harness.Run(
        args.workload, args.seed, args.seconds, bool(args.trace), golden, args.regen_golden
    )
    machine = harness.fingerprint(args.seed, args.seconds)
    _workload_function(args.workload)(run)
    run.put("peak_rss_mib", harness.peak_rss_mib())
    run.put("verify_s", run.verify_s)
    run.put("machine.fsync_ms", machine["machine.fsync_ms"])
    run.put("failed_frac", run.failed / max(run.attempted, 1), n=run.attempted)
    run.check("no operation failed", run.failed == 0, f"{run.failed}/{run.attempted}")
    if run.ledger is not None:
        harness.write_json(
            harness.OUT_DIR / f"trace.{run.workload}.json", {"spans": run.ledger.spans}
        )
    return {
        "workload": run.workload,
        "trace": bool(args.trace),
        "fingerprint": machine,
        "correct": run.correct,
        "valid": run.valid,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
        "samples": run.samples,
        "checks": run.checks,
        "digests": run.digests,
    }


def print_result(result: dict) -> None:
    workload = result["workload"]
    for metric in spec.END_TO_END + spec.PER_LAYER:
        if metric.name not in result["metrics"]:
            continue
        if metric in spec.PER_LAYER and not result["trace"]:
            continue
        n = result["samples"].get(metric.name)
        print(
            f"{workload:18s} {metric.name:46s} "
            f"{result['metrics'][metric.name]:16.6g} {metric.unit:9s}"
            + (f" n={n}" if n else "")
        )
    for check in result["checks"]:
        verdict = "ok  " if check["ok"] else "INVALID" if check["validity"] else "FAIL"
        print(f"{workload:18s} check {verdict} {check['check']}"
              + (f" — {check['detail']}" if check["detail"] else ""))


def driver_line(result: dict) -> str:
    """The last line of a single-workload run: what the driver parses."""
    wanted = (
        spec.WORKLOAD_END_TO_END + spec.PER_LAYER if result["trace"]
        else spec.DRIVER_END_TO_END
    )
    metrics = {
        m.name: {"value": result["metrics"].get(m.name, 0.0), "unit": m.unit}
        for m in wanted
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": max(result["attempted"], 1),
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess; merged result and trace."""
    results = []
    passes = ([0, 1] if args.trace else [0]) * args.runs
    for workload in spec.WORKLOADS:
        for trace in passes:
            out = harness.OUT_DIR / "tmp" / f"result.{workload}.{trace}.json"
            command = [
                sys.executable, str(harness.BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out),
            ]
            if args.golden:
                command += ["--golden", args.golden]
            if args.regen_golden and trace == 0:
                command += ["--regen-golden"]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
            if not out.exists():
                print(f"{workload}: run failed (exit {completed.returncode})")
                results.append({"workload": workload, "trace": bool(trace), "correct": False})
                continue
            results.append(json.loads(out.read_text()))
            out.unlink()
    if args.trace:
        spans = []
        for workload in spec.WORKLOADS:
            path = harness.OUT_DIR / f"trace.{workload}.json"
            offset = len(spans)
            for span in json.loads(path.read_text())["spans"] if path.exists() else []:
                if span["parent"] is not None:
                    span["parent"] += offset
                spans.append(span)
        harness.write_json(harness.OUT_DIR / "trace.json", {"spans": spans})
    correct = all(r["correct"] for r in results)
    harness.write_json(Path(args.out), {"correct": correct, "runs": results})
    print(f"wrote {args.out}; {'all checks passed' if correct else 'CHECKS FAILED'}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.RUN_SECONDS),
        help="length of the timed window; every op count scales with it",
    )
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    parser.add_argument("--golden", default=None, help="golden digest file to check against")
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="rebuild this seed's golden digests through the reference simulator",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="repeat every workload this often (a set of runs for --compare)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--emit-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    if args.emit_benchmark_json:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload is None:
        args.out = args.out or str(harness.OUT_DIR / "result.json")
        return run_all(args)
    result = run_one(args)
    print_result(result)
    if args.out:
        harness.write_json(Path(args.out), result)
    print(driver_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
