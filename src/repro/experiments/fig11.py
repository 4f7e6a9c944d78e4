"""Fig. 11 — seek amplification factors of LS and the three techniques.

Each workload's technique sweep is read from the run's
:class:`~repro.experiments.sweep.SweepEngine` (NoLS baseline + recorded
fragment stream), so a run pays each recording once.
"""

from __future__ import annotations

from repro.core.config import NOLS, PAPER_CONFIGS
from repro.core.metrics import seek_amplification
from repro.experiments.render import format_table
from repro.workloads import CLOUDPHYSICS_WORKLOADS, MSR_WORKLOADS

#: NoLS and every paper config, on every workload of both families.
NEEDS = {name: [NOLS, *PAPER_CONFIGS] for name in MSR_WORKLOADS + CLOUDPHYSICS_WORKLOADS}


def run(engine) -> dict:
    """Regenerate Fig. 11: total SAF per workload under plain LS,
    LS+opportunistic defrag, LS+look-ahead-behind prefetch and
    LS+selective caching (64 MB), for the MSR and CloudPhysics sets.

    Shapes to check (paper §V): MSR workloads except usr_1/hm_1 sit below
    1; most CloudPhysics workloads sit above 1 with w91 worst; defrag
    worsens src2_2/w93/w20; prefetch gains are large for w84/w95/w91 and
    marginal for usr_1/hm_1/w55/w33; caching is the best technique nearly
    everywhere.
    """
    data = {}
    for family, names in (("msr", MSR_WORKLOADS), ("cloudphysics", CLOUDPHYSICS_WORKLOADS)):
        rows = []
        for name in names:
            baseline = engine.baseline(name)
            safs = {}
            for config, result in zip(
                PAPER_CONFIGS, engine.workload_sweep(name, PAPER_CONFIGS)
            ):
                saf = seek_amplification(result.stats, baseline)
                safs[config.name] = {
                    "read": round(saf.read, 3),
                    "write": round(saf.write, 3),
                    "total": round(saf.total, 3),
                }
            data[name] = {"family": family, "saf": safs}
            rows.append(
                [name]
                + [f"{safs[c.name]['total']:.2f}" for c in PAPER_CONFIGS]
            )
        print(
            format_table(
                ["workload"] + [c.name for c in PAPER_CONFIGS],
                rows,
                title=f"Fig. 11 ({family}): total seek amplification factor",
            )
        )
    return data
