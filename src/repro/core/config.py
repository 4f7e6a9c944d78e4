"""Technique bundles and translator factories.

The evaluation compares four configurations per workload (Fig. 11): plain
LS, LS + opportunistic defrag, LS + look-ahead-behind prefetch, and LS +
selective caching.  :class:`TechniqueConfig` names one such bundle;
:func:`build_translator` constructs a fresh translator for a trace; and
:data:`PAPER_CONFIGS` is the Fig. 11 line-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.defrag import DefragConfig, OpportunisticDefrag
from repro.core.multifrontier import MultiFrontierTranslator, RecencyClassifier
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator, Translator
from repro.trace.trace import Trace
from repro.util.units import mib_to_sectors


@dataclass(frozen=True)
class MultiFrontierConfig:
    """Hot/cold-separated (WOLF-style) log placement settings.

    Attaching this to a :class:`TechniqueConfig` swaps the single-frontier
    :class:`LogStructuredTranslator` for a
    :class:`~repro.core.multifrontier.MultiFrontierTranslator`: writes are
    classified by recency and each class appends at its own frontier.

    Attributes:
        frontiers: Number of write frontiers (2 = the stock cold/hot
            split; higher counts are the seam for K BIT-classified
            frontiers, see ROADMAP item 2).
        region_mib: Size of *each* frontier's log region, in MiB.
        window: Recency window of the classifier, in distinct 4 KiB
            blocks (:class:`~repro.core.multifrontier.RecencyClassifier`).
        block_sectors: Classification granularity in sectors.
    """

    frontiers: int = 2
    region_mib: float = 2048.0
    window: int = 4096
    block_sectors: int = 8

    def __post_init__(self) -> None:
        if self.frontiers < 2:
            raise ValueError(f"frontiers must be >= 2, got {self.frontiers}")
        if self.region_mib <= 0:
            raise ValueError(f"region_mib must be > 0, got {self.region_mib}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.block_sectors < 1:
            raise ValueError(
                f"block_sectors must be >= 1, got {self.block_sectors}"
            )


@dataclass(frozen=True)
class TechniqueConfig:
    """One translator configuration for the evaluation matrix.

    Attributes:
        name: Report label (``"NoLS"``, ``"LS"``, ``"LS+defrag"`` …).
        log_structured: False for the in-place baseline.
        defrag: Opportunistic-defrag settings, or None to disable.
        prefetch: Look-ahead-behind settings, or None to disable.
        cache: Selective-cache settings, or None to disable.
        multi_frontier: Hot/cold frontier separation settings, or None
            for the single-frontier log.  Mutually exclusive with the
            three seek-reduction techniques (the multi-frontier
            translator has no technique hooks).
    """

    name: str
    log_structured: bool = True
    defrag: Optional[DefragConfig] = None
    prefetch: Optional[PrefetchConfig] = None
    cache: Optional[SelectiveCacheConfig] = None
    multi_frontier: Optional[MultiFrontierConfig] = None


NOLS = TechniqueConfig(name="NoLS", log_structured=False)
LS = TechniqueConfig(name="LS")
LS_DEFRAG = TechniqueConfig(name="LS+defrag", defrag=DefragConfig())
LS_PREFETCH = TechniqueConfig(name="LS+prefetch", prefetch=PrefetchConfig())
LS_CACHE = TechniqueConfig(name="LS+cache", cache=SelectiveCacheConfig(capacity_mib=64.0))

PAPER_CONFIGS: Tuple[TechniqueConfig, ...] = (LS, LS_DEFRAG, LS_PREFETCH, LS_CACHE)
"""The four bars of Fig. 11, in the paper's left-to-right order."""

LS_ALL = TechniqueConfig(
    name="LS+all",
    defrag=DefragConfig(min_fragments=4, min_accesses=2),
    prefetch=PrefetchConfig(),
    cache=SelectiveCacheConfig(),
)
"""All three techniques composed (defrag throttled per the §IV-A knobs so
its rewrites don't churn data the cache already holds — see the
``ablation_combined`` exhibit)."""

ALL_CONFIGS: Tuple[TechniqueConfig, ...] = (NOLS,) + PAPER_CONFIGS + (LS_ALL,)


def build_translator(
    trace: Trace,
    config: TechniqueConfig,
    address_map_tier: Optional[str] = None,
) -> Translator:
    """Construct a fresh translator for replaying ``trace`` under ``config``.

    The log frontier is placed at the trace's ``max_end`` so pre-trace data
    resolves at PBA = LBA (§III).
    """
    return build_translator_for_base(trace.max_end, config, address_map_tier)


def build_translator_for_base(
    frontier_base: int,
    config: TechniqueConfig,
    address_map_tier: Optional[str] = None,
) -> Translator:
    """Construct a fresh translator with an explicit log frontier base.

    The streaming service (:mod:`repro.service`) uses this: a live session
    has no whole trace to take ``max_end`` from, so the tenant declares the
    LBA capacity its ops will stay under and the log starts there.  For the
    in-place baseline the base is irrelevant and ignored.

    ``address_map_tier`` picks the extent-map implementation backing a
    log-structured translator (see :mod:`repro.extentmap.tiers`): ``None``
    resolves to the pure-Python reference tier unless the
    ``REPRO_EXTENT_MAP`` environment variable forces one; the batch
    kernels pass the ``"array"`` tier explicitly.  Every tier is exact,
    so the choice never changes results.
    """
    if not config.log_structured:
        return InPlaceTranslator()
    from repro.extentmap.tiers import make_address_map

    if config.multi_frontier is not None:
        if config.defrag or config.prefetch or config.cache:
            raise ValueError(
                f"config {config.name!r}: multi_frontier cannot be combined "
                "with defrag/prefetch/cache (the multi-frontier translator "
                "has no technique hooks)"
            )
        mf = config.multi_frontier
        return MultiFrontierTranslator(
            frontier_base=frontier_base,
            region_sectors=mib_to_sectors(mf.region_mib),
            classifier=RecencyClassifier(
                window=mf.window, block_sectors=mf.block_sectors
            ),
            address_map=make_address_map(address_map_tier),
            n_frontiers=mf.frontiers,
        )
    return LogStructuredTranslator(
        frontier_base=frontier_base,
        address_map=make_address_map(address_map_tier),
        defrag=OpportunisticDefrag(config.defrag) if config.defrag else None,
        prefetcher=LookAheadBehindPrefetcher(config.prefetch) if config.prefetch else None,
        cache=SelectiveFragmentCache(config.cache) if config.cache else None,
    )


def config_to_dict(config: TechniqueConfig) -> dict:
    """JSON-serializable encoding of a :class:`TechniqueConfig`.

    Round-trips exactly through :func:`config_from_dict`; used by the
    service wire protocol and checkpoint headers.
    """
    from dataclasses import asdict

    return {
        "name": config.name,
        "log_structured": config.log_structured,
        "defrag": asdict(config.defrag) if config.defrag else None,
        "prefetch": asdict(config.prefetch) if config.prefetch else None,
        "cache": asdict(config.cache) if config.cache else None,
        "multi_frontier": (
            asdict(config.multi_frontier) if config.multi_frontier else None
        ),
    }


def config_from_dict(data: dict) -> TechniqueConfig:
    """Inverse of :func:`config_to_dict`.  A key it does not know is
    ignored: older checkpoint headers and ``open`` requests carry
    ``"fast"``, which changed no simulated number."""
    return TechniqueConfig(
        name=data["name"],
        log_structured=bool(data.get("log_structured", True)),
        defrag=DefragConfig(**data["defrag"]) if data.get("defrag") else None,
        prefetch=PrefetchConfig(**data["prefetch"]) if data.get("prefetch") else None,
        cache=SelectiveCacheConfig(**data["cache"]) if data.get("cache") else None,
        multi_frontier=(
            MultiFrontierConfig(**data["multi_frontier"])
            if data.get("multi_frontier")
            else None
        ),
    )
