#!/usr/bin/env python3
"""Ablations: tune each technique's knobs on the w91 archetype.

Sweeps the §IV-A defragmentation throttles (min fragments N, min accesses
k), the selective-cache size, and the prefetch window, reporting total SAF
for each setting — the design-choice ablations DESIGN.md calls out.

Run:  python examples/technique_tuning.py
"""

from repro import (
    NOLS,
    DefragConfig,
    PrefetchConfig,
    SelectiveCacheConfig,
    TechniqueConfig,
    build_translator,
    replay,
    seek_amplification,
    synthesize_workload,
)


def saf_for(trace, baseline, config: TechniqueConfig) -> float:
    result = replay(trace, build_translator(trace, config))
    return seek_amplification(result.stats, baseline.stats).total


def main(scale: float = 1.0) -> None:
    trace = synthesize_workload("w91", seed=42, scale=scale)
    baseline = replay(trace, build_translator(trace, NOLS))
    ls_saf = saf_for(trace, baseline, TechniqueConfig(name="LS"))
    print(f"w91 archetype, plain LS SAF = {ls_saf:.2f}\n")

    print("opportunistic defrag: min_fragments (N) x min_accesses (k)")
    for n in (2, 4, 8):
        row = []
        for k in (1, 2, 4):
            config = TechniqueConfig(
                name=f"defrag N={n} k={k}",
                defrag=DefragConfig(min_fragments=n, min_accesses=k),
            )
            row.append(f"k={k}: {saf_for(trace, baseline, config):5.2f}")
        print(f"  N={n}:  " + "   ".join(row))

    print("\nselective cache size sweep (paper uses 64 MB)")
    for mib in (4, 16, 64, 256):
        config = TechniqueConfig(
            name=f"cache {mib}MB",
            cache=SelectiveCacheConfig(capacity_mib=float(mib)),
        )
        print(f"  {mib:>4} MB: SAF {saf_for(trace, baseline, config):5.2f}")

    print("\nprefetch window sweep (look-behind = look-ahead)")
    for kib in (64, 128, 256, 512):
        config = TechniqueConfig(
            name=f"prefetch {kib}KB",
            prefetch=PrefetchConfig(behind_kib=float(kib), ahead_kib=float(kib)),
        )
        print(f"  {kib:>4} KB: SAF {saf_for(trace, baseline, config):5.2f}")

    print("\nall three techniques composed")
    combo = TechniqueConfig(
        name="LS+all",
        defrag=DefragConfig(min_fragments=4, min_accesses=2),
        prefetch=PrefetchConfig(),
        cache=SelectiveCacheConfig(),
    )
    print(f"  LS+defrag+prefetch+cache: SAF {saf_for(trace, baseline, combo):5.2f}")


if __name__ == "__main__":
    main()
