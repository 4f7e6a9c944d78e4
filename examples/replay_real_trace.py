#!/usr/bin/env python3
"""Replay a real block trace file through the simulator.

Anyone with the SNIA MSR Cambridge download can point this at e.g.
``src2_2.csv`` and reproduce the paper on the genuine traces:

    python examples/replay_real_trace.py path/to/src2_2.csv --max-ops 500000

Without an argument, the example writes a small MSR-format file itself (a
random-write + sequential-scan pattern) so the parsing-and-replay flow is
demonstrable offline.
"""

import argparse
import random
import sys
import tempfile
from pathlib import Path

from repro import (
    NOLS,
    PAPER_CONFIGS,
    build_translator,
    replay,
    seek_amplification,
)
from repro.trace.msr import parse_msr_file

TICKS_PER_SECOND = 10_000_000
EPOCH = 128_166_372_000_000_000


def write_demo_msr_file(path: Path, n_ops: int = 4000) -> None:
    """Emit an MSR-format CSV: random 4 KB updates to a 64 MB file,
    followed by two sequential scans of it."""
    rng = random.Random(9)
    file_bytes = 64 * 1024 * 1024
    lines = []
    ticks = EPOCH
    for _ in range(n_ops // 2):
        offset = rng.randrange(0, file_bytes - 4096) // 4096 * 4096
        lines.append(f"{ticks},demo,0,Write,{offset},4096,500")
        ticks += TICKS_PER_SECOND // 1000
    scan_ops = n_ops // 4
    read_size = file_bytes // scan_ops
    for _ in range(2):
        for i in range(scan_ops):
            lines.append(f"{ticks},demo,0,Read,{i * read_size},{read_size},500")
            ticks += TICKS_PER_SECOND // 1000
    path.write_text("\n".join(lines) + "\n")


def main(argv=None, scale: float = 1.0) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", help="MSR-format CSV trace file")
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--disk", type=int, default=None, help="disk number filter")
    parser.add_argument(
        "--policy",
        choices=("strict", "lenient", "quarantine"),
        default="lenient",
        help="malformed-record handling; real dumps are dirty, so the "
        "example defaults to lenient (see docs/ROBUSTNESS.md)",
    )
    args = parser.parse_args(argv)

    if args.trace:
        path = Path(args.trace)
    else:
        path = Path(tempfile.mkdtemp()) / "demo_msr.csv"
        write_demo_msr_file(path, n_ops=max(8, int(4000 * scale)))
        print(f"(no trace given: wrote demo MSR file to {path})")

    trace = parse_msr_file(
        path, disk_number=args.disk, max_ops=args.max_ops, policy=args.policy
    )
    if len(trace) == 0:
        sys.exit("trace is empty after filtering")
    print(f"parsed {len(trace)} ops from {path.name}: "
          f"{trace.read_count} reads / {trace.write_count} writes")
    report = trace.parse_report
    if report is not None and report.malformed:
        print(f"({report.malformed} malformed records dropped; "
              f"first: {report.errors[0].reason})")

    baseline = replay(trace, build_translator(trace, NOLS))
    print(f"\n{'config':14} {'SAF total':>9}")
    for config in PAPER_CONFIGS:
        result = replay(trace, build_translator(trace, config))
        saf = seek_amplification(result.stats, baseline.stats)
        print(f"{config.name:14} {saf.total:>9.2f}")


if __name__ == "__main__":
    main()
