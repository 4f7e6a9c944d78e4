"""Command-line workload synthesis.

Generate a Table-I archetype trace and write it as native CSV (replayable
by :mod:`repro.trace.csvio` or any external tool), or list the registry::

    python -m repro.workloads list
    python -m repro.workloads w91 --seed 7 --scale 2.0 --out w91.csv
    python -m repro.workloads hm_1 --stats
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.classify import characterize
from repro.trace.csvio import write_csv_trace
from repro.trace.stats import compute_stats
from repro.workloads import TABLE1, synthesize_workload


def _list_registry() -> None:
    print(f"{'name':8} {'family':12} {'ops':>7} {'rd frac':>8} {'hot MiB':>8}  paper notes")
    for name, entry in TABLE1.items():
        spec = entry.spec
        expect = entry.expect
        notes = []
        if expect.ls_amplifies:
            notes.append("SAF>1")
        if not expect.cache_is_best:
            notes.append("cache-not-best")
        if expect.defrag_hurts:
            notes.append("defrag-hurts")
        if expect.prefetch_gain_large:
            notes.append("prefetch-large")
        if expect.high_misorder:
            notes.append("high-misorder")
        print(
            f"{name:8} {spec.family:12} {spec.total_ops:>7} "
            f"{spec.read_fraction:>8.3f} {spec.hot_mib:>8}  {', '.join(notes)}"
        )


def main(argv=None) -> int:
    """Run ``python -m repro.workloads`` with ``argv``; return the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Synthesize Table-I workload archetype traces.",
    )
    parser.add_argument("workload", help="Table-I workload name, or 'list'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", metavar="CSV", help="write the trace here")
    parser.add_argument(
        "--stats", action="store_true", help="print Table-I-style statistics"
    )
    args = parser.parse_args(argv)

    if args.workload == "list":
        _list_registry()
        return 0

    try:
        trace = synthesize_workload(args.workload, seed=args.seed, scale=args.scale)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    stats = compute_stats(trace)
    print(
        f"{trace.name}: {stats.op_count} ops, {stats.read_count} reads / "
        f"{stats.write_count} writes, mean write "
        f"{stats.mean_write_size_kib:.1f} KiB, "
        f"{stats.read_volume_gib:.2f} GiB read / "
        f"{stats.written_volume_gib:.2f} GiB written"
    )
    if args.stats:
        character = characterize(trace)
        print(
            f"write intensity {character.write_intensity:.2f}, "
            f"sequential-read share {character.sequential_read_share:.2f}, "
            f"overwrite ratio {character.overwrite_ratio:.2f}, "
            f"mixed-read share {character.mixed_read_share:.2f} "
            f"-> predicted {character.predicted_sensitivity().value}"
        )
    if args.out:
        write_csv_trace(trace, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
