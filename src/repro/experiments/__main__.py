"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.experiments all --out results/
    python -m repro.experiments fig11 fig10 --seed 7
    python -m repro.experiments all --out results/ --keep-going --timeout 600
    python -m repro.experiments all --out results/ --resume
    python -m repro.experiments all --out results/ --jobs 2 --trace-store ts/
    repro-experiments table1

Exhibits are always computed by the exact column kernels.  Every run
fills the per-trace result table one trace per task before the exhibits
render: in this process by default, over N worker processes with
``--jobs N``; exhibit JSON is byte-identical either way.

Long runs are crash-safe (see docs/ROBUSTNESS.md): with ``--out`` every
exhibit JSON and the ``run.json`` manifest are written atomically, and
``--resume`` skips exhibits a previous (possibly killed) run already
completed with the same seed/scale.  The exit status is 0 only when every
requested exhibit succeeded.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import EXHIBITS, resolve_names
from repro.experiments.runner import (
    RunInterrupted,
    format_outcome_table,
    run_exhibits,
)


def main(argv=None) -> int:
    """Run ``python -m repro.experiments`` with ``argv``; return the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate tables/figures from 'Minimizing Read Seeks "
        "for SMR Disk' (IISWC 2018) on synthetic workload archetypes.",
    )
    parser.add_argument(
        "exhibits",
        nargs="+",
        help=f"exhibit names ({', '.join(EXHIBITS)}), 'all', or 'report' "
        "to consolidate saved JSONs into REPORT.md",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload RNG seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (1.0 = registry default)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for JSON result dumps and the run.json manifest "
        "(default: no dumps)",
    )
    parser.add_argument(
        "--svg",
        default=None,
        metavar="DIR",
        help="directory for SVG chart renderings (chartable exhibits only)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue past failing exhibits; print a pass/fail table at "
        "the end and exit 1 if any failed",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-exhibit time budget; an exhibit over budget counts as "
        "failed (POSIX main thread only)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip exhibits already completed by a previous run with the "
        "same --out, seed and scale (needs the run.json manifest)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fill the per-trace result table over N worker processes, one "
        "trace per task (default 1: the same tasks fill it in this process; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="accepted for compatibility and ignored: the exact kernels "
        "always run",
    )
    parser.add_argument(
        "--trace-store",
        default=None,
        metavar="DIR",
        help="persistent compiled-trace store: workload traces are "
        "compiled to page-aligned column files under DIR on first use "
        "and memory-mapped back on later runs (exact; delete DIR to "
        "clear)",
    )
    parser.add_argument(
        "--stream-store",
        default=None,
        metavar="DIR",
        help="accepted for compatibility and ignored",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.exhibits == ["report"]:
        from repro.experiments.report import write_report

        if not args.out:
            parser.error("'report' needs --out DIR pointing at saved results")
        path = write_report(args.out)
        print(f"wrote {path}")
        return 0

    try:
        names = resolve_names(args.exhibits)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    if args.resume and not args.out:
        parser.error("--resume requires --out DIR (the manifest lives there)")

    try:
        outcomes = run_exhibits(
            names,
            seed=args.seed,
            scale=args.scale,
            out_dir=args.out,
            svg_dir=args.svg,
            keep_going=args.keep_going,
            timeout_s=args.timeout,
            resume=args.resume,
            jobs=args.jobs,
            trace_store=args.trace_store,
        )
    except RunInterrupted as exc:
        # Workers are reaped and the manifest is finalized before this
        # propagates; the conventional 128+signum exit code tells the
        # shell which signal it was (130 SIGINT, 143 SIGTERM).
        print(
            f"\nrun interrupted by {exc.signal_name}; completed exhibits are "
            "checkpointed — rerun with --resume to continue",
            file=sys.stderr,
        )
        return 128 + exc.signum
    failed = [o for o in outcomes if not o.ok]
    if args.keep_going or failed or len(outcomes) > 1:
        print(format_outcome_table(outcomes))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
