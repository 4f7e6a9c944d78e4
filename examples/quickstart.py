#!/usr/bin/env python3
"""Quickstart: measure read-seek amplification on one workload.

Synthesizes the paper's worst-case CloudPhysics workload archetype (w91),
replays it through the conventional baseline and the log-structured
translator, then through each of the paper's three seek-reduction
techniques, and prints the seek amplification factors (Fig. 11 style).

Run:  python examples/quickstart.py
"""

from repro import (
    NOLS,
    PAPER_CONFIGS,
    build_translator,
    replay,
    seek_amplification,
    synthesize_workload,
)


def main(scale: float = 1.0) -> None:
    trace = synthesize_workload("w91", seed=42, scale=scale)
    print(f"workload: {trace.name}  ({len(trace)} ops, "
          f"{trace.read_count} reads / {trace.write_count} writes)")

    baseline = replay(trace, build_translator(trace, NOLS))
    print(f"\nconventional drive (NoLS): "
          f"{baseline.stats.read_seeks} read seeks, "
          f"{baseline.stats.write_seeks} write seeks")

    print(f"\n{'config':14} {'rd seeks':>9} {'wr seeks':>9} "
          f"{'SAF rd':>7} {'SAF wr':>7} {'SAF total':>9}")
    for config in PAPER_CONFIGS:
        result = replay(trace, build_translator(trace, config))
        saf = seek_amplification(result.stats, baseline.stats)
        print(
            f"{config.name:14} {result.stats.read_seeks:>9} "
            f"{result.stats.total_write_seeks:>9} "
            f"{saf.read:>7.2f} {saf.write:>7.2f} {saf.total:>9.2f}"
        )

    print(
        "\nReading: plain log-structuring amplifies total seeks (SAF > 1)\n"
        "because sequential scans traverse temporally-scattered data;\n"
        "translation-aware selective caching recovers (and beats) the\n"
        "conventional drive's seek behaviour."
    )


if __name__ == "__main__":
    main()
