"""Exhibit registry mapping names to runner modules.

Exhibits that iterate independent workloads also declare a
:class:`Sharding`: ``shards(seed, scale)`` lists the shard names,
``run_shard(shard, seed, scale)`` produces one picklable payload, and
``merge(payloads, seed, scale, out_dir)`` deterministically reassembles
the exhibit (prints + JSON).  Each module's ``run`` is defined as merge
over a serial shard loop, so serial and sharded-parallel runs share one
code path and their output is byte-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

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

Runner = Callable[..., dict]

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


@dataclass(frozen=True)
class Sharding:
    """How the parallel runner splits one exhibit into workload shards."""

    shards: Callable[[int, float], List[str]]
    run_shard: Callable[..., dict]
    merge: Callable[..., dict]


SHARDED: Dict[str, Sharding] = {
    "fig2": Sharding(fig2.shard_names, fig2.run_shard, fig2.merge),
    "fig3": Sharding(fig3.shard_names, fig3.run_shard, fig3.merge),
    "fig4": Sharding(fig4.shard_names, fig4.run_shard, fig4.merge),
    "fig5": Sharding(fig5.shard_names, fig5.run_shard, fig5.merge),
    "fig8": Sharding(fig8.shard_names, fig8.run_shard, fig8.merge),
    "fig10": Sharding(fig10.shard_names, fig10.run_shard, fig10.merge),
    "fig11": Sharding(fig11.shard_names, fig11.run_shard, fig11.merge),
}
"""Exhibits the parallel runner may split into per-workload shards."""


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


def run_exhibit(
    name: str,
    seed: int = 42,
    scale: float = 1.0,
    out_dir: Optional[str] = None,
) -> dict:
    """Run one exhibit by name (KeyError lists the valid names)."""
    try:
        runner = EXHIBITS[name]
    except KeyError:
        raise KeyError(
            f"unknown exhibit {name!r}; known: {', '.join(EXHIBITS)}"
        ) from None
    return runner(seed=seed, scale=scale, out_dir=out_dir)
