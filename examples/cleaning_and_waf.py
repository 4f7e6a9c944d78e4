#!/usr/bin/env python3
"""Beyond the paper's infinite disk: cleaning cost on a finite log.

The paper evaluates on an infinite disk ("for archival workloads cleaning
may never be needed").  This example uses the finite-disk
:class:`ZonedCleaningTranslator` to show the other regime: an
overwrite-heavy workload on a log with limited spare capacity, where
write amplification and cleaning seeks grow sharply as over-provisioning
shrinks — and how the two seek metrics (SAF counting host seeks only, vs
SAF including cleaning traffic) diverge.

Run:  python examples/cleaning_and_waf.py
"""

from repro import NOLS, build_translator, replay
from repro.core.cleaning import ZonedCleaningTranslator
from repro.workloads import ReadMix, WorkloadSpec, WriteMix, generate_workload


def overwrite_workload(scale: float = 1.0):
    return generate_workload(
        WorkloadSpec(
            name="oltp-churn",
            family="cloudphysics",
            total_ops=12_000,
            read_fraction=0.3,
            mean_read_kib=16.0,
            mean_write_kib=16.0,
            working_set_mib=8,
            hot_mib=4,
            write_mix=WriteMix(random=0.4, hot_overwrite=0.6),
            read_mix=ReadMix(scan=0.5, random=0.5),
            phases=4,
        ),
        seed=5,
        scale=scale,
    )


def main(scale: float = 1.0) -> None:
    trace = overwrite_workload(scale)
    baseline = replay(trace, build_translator(trace, NOLS))
    print(
        f"workload: {len(trace)} ops over an 8 MiB volume "
        f"({trace.write_count} writes, heavy overwrite churn)\n"
    )
    print(f"{'log capacity':>12} {'WAF':>6} {'cleanings':>9} "
          f"{'host SAF':>9} {'SAF incl. cleaning':>19}")
    for n_zones in (10, 12, 16, 24, 48):
        translator = ZonedCleaningTranslator(
            frontier_base=trace.max_end,
            zone_mib=1.0,
            n_zones=n_zones,
            reserve_zones=2,
        )
        stats = replay(trace, translator).stats
        cleaning = translator.cleaning_stats
        host_saf = stats.total_seeks / max(1, baseline.stats.total_seeks)
        full_saf = (stats.total_seeks + cleaning.cleaning_seeks) / max(
            1, baseline.stats.total_seeks
        )
        print(
            f"{n_zones:>9} MiB {cleaning.write_amplification:>6.2f} "
            f"{cleaning.cleanings:>9} {host_saf:>9.2f} {full_saf:>19.2f}"
        )
    print(
        "\nReading: with ~1.2x over-provisioning the translator spends more\n"
        "seeks cleaning than serving the host; at 6x the log behaves like\n"
        "the paper's infinite disk (WAF -> 1, cleaning seeks -> 0).  This\n"
        "is the overhead the paper's archival assumption removes, and why\n"
        "its seek-reduction techniques matter once cleaning is gone."
    )


if __name__ == "__main__":
    main()
