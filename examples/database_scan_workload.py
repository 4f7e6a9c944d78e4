#!/usr/bin/env python3
"""The paper's §III thought experiment, built as a custom workload spec.

A database file receives small random updates, then is scanned
sequentially, repeatedly — the canonical log-sensitive pattern ("if the
file is read in its entirety N times, the net result will be an N-fold
seek amplification").  This example builds that workload from scratch with
:class:`WorkloadSpec`, shows the amplification growing with the scan share
of the read stream, and how each technique responds.

Run:  python examples/database_scan_workload.py
"""

from repro import (
    NOLS,
    PAPER_CONFIGS,
    build_translator,
    replay,
    seek_amplification,
)
from repro.workloads import ReadMix, WorkloadSpec, WriteMix, generate_workload


def database_spec(scans_weight: float) -> WorkloadSpec:
    """A 32 MiB database inside a 512 MiB volume: random overwrites, then
    sequential scans whose share of the read stream is ``scans_weight``."""
    return WorkloadSpec(
        name=f"dbscan-{scans_weight:.1f}",
        family="cloudphysics",
        total_ops=20_000,
        read_fraction=0.7,
        mean_read_kib=64.0,
        mean_write_kib=16.0,
        working_set_mib=512,
        hot_mib=32,
        write_mix=WriteMix(random=0.3, hot_overwrite=0.7),
        read_mix=ReadMix(scan=scans_weight, random=1.0 - scans_weight),
        overwrite_cluster=2,
        phases=4,
        write_phase_decay=0.4,
    )


def main(scale: float = 1.0) -> None:
    print("SAF vs share of reads that sequentially scan the database:\n")
    header = f"{'scan share':>10} | " + " | ".join(
        f"{c.name:>11}" for c in PAPER_CONFIGS
    )
    print(header)
    print("-" * len(header))
    for scans_weight in (0.0, 0.25, 0.5, 0.75, 0.95):
        trace = generate_workload(
            database_spec(max(scans_weight, 1e-9)), seed=7, scale=scale
        )
        baseline = replay(trace, build_translator(trace, NOLS))
        cells = []
        for config in PAPER_CONFIGS:
            result = replay(trace, build_translator(trace, config))
            saf = seek_amplification(result.stats, baseline.stats)
            cells.append(f"{saf.total:>11.2f}")
        print(f"{scans_weight:>10.2f} | " + " | ".join(cells))

    print(
        "\nReading: with no scans, amplification is mild (random reads\n"
        "occasionally straddle a fragment; random writes become\n"
        "sequential).  As scans take over the read stream, plain-LS SAF\n"
        "climbs steeply, while selective caching holds it near — and\n"
        "eventually below — the conventional drive: the database fits the\n"
        "64 MB cache once the first scan has warmed it."
    )


if __name__ == "__main__":
    main()
