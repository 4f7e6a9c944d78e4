"""Fig. 2 — read and write seek counts, NoLS vs LS, per workload."""

from __future__ import annotations

from repro.core.config import LS, NOLS
from repro.experiments.render import format_table
from repro.workloads import FIG2_CLOUDPHYSICS, FIG2_MSR


#: The NoLS and LS points of every Fig. 2 workload.
NEEDS = {name: [NOLS, LS] for name in FIG2_MSR + FIG2_CLOUDPHYSICS}


def run(engine) -> dict:
    """Regenerate Fig. 2: per-workload read/write seek counts for the
    untranslated (NoLS) and log-structured (LS) replays.

    The paper's observations to check against: write seeks collapse under
    LS everywhere; read seeks rise modestly for some workloads (src2_2,
    wdev_0, w36), hugely for others (w91, w33, w20).
    """
    data = {}
    rows = []
    for family, names in (("msr", FIG2_MSR), ("cloudphysics", FIG2_CLOUDPHYSICS)):
        for name in names:
            nols = engine.baseline(name)
            ls = engine.workload_replay(name, LS).stats
            data[name] = {
                "family": family,
                "nols": {"read_seeks": nols.read_seeks, "write_seeks": nols.write_seeks},
                "ls": {"read_seeks": ls.read_seeks, "write_seeks": ls.write_seeks},
            }
            total_ratio = (ls.read_seeks + ls.write_seeks) / max(
                1, nols.read_seeks + nols.write_seeks
            )
            rows.append(
                [
                    name,
                    family,
                    nols.read_seeks,
                    nols.write_seeks,
                    ls.read_seeks,
                    ls.write_seeks,
                    f"{total_ratio:.2f}",
                ]
            )
    print(
        format_table(
            ["workload", "family", "NoLS rd", "NoLS wr", "LS rd", "LS wr", "total ratio"],
            rows,
            title="Fig. 2: read/write seek counts under NoLS vs LS",
        )
    )
    return data
