"""Exhibit registry mapping names to runners.

Every exhibit is ``run(engine) -> dict``, a view over the per-trace
result table of the run's :class:`~repro.experiments.sweep.SweepEngine`.
Those that read Table I workloads declare what they read in
:data:`NEEDS`: each workload's technique configs (point rows) and
analysis functions ``f(engine, trace)`` (analysis rows).  The runner fills
those rows one trace per task, in process or over a pool, before it
renders the exhibits from the table.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.experiments import (
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
)
from repro.experiments.sweep import SweepEngine

Runner = Callable[[SweepEngine], dict]

EXHIBITS: Dict[str, Runner] = {
    "table1": table1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "ablation_cache": ablations.run_cache,
    "ablation_defrag": ablations.run_defrag,
    "ablation_prefetch": ablations.run_prefetch,
    "ablation_cleaning": ablations.run_cleaning,
    "ablation_multifrontier": ablations.run_multifrontier,
    "ablation_combined": ablations.run_combined,
    "taxonomy": ablations.run_taxonomy,
}
"""All regenerable exhibits: the paper's (in its order) plus ablations."""


NEEDS: Dict[str, dict] = {
    "table1": table1.NEEDS,
    "fig2": fig2.NEEDS,
    "fig3": fig3.NEEDS,
    "fig4": fig4.NEEDS,
    "fig5": fig5.NEEDS,
    "fig7": fig7.NEEDS,
    "fig8": fig8.NEEDS,
    "fig10": fig10.NEEDS,
    "fig11": fig11.NEEDS,
    **ablations.NEEDS,
}
"""What each Table-I-reading exhibit asks of the result table, per workload."""


def resolve_names(requested: Sequence[str]) -> List[str]:
    """Expand/validate a CLI exhibit list.

    ``"all"`` anywhere in the list expands to every registered exhibit (in
    registry order); otherwise every name must be registered.  Raises
    :class:`KeyError` naming the first unknown exhibit.
    """
    if "all" in requested:
        return list(EXHIBITS)
    for name in requested:
        if name not in EXHIBITS:
            raise KeyError(
                f"unknown exhibit {name!r}; known: {', '.join(EXHIBITS)}"
            )
    return list(requested)
