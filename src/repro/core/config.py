"""Technique bundles and translator factories.

The evaluation compares four configurations per workload (Fig. 11): plain
LS, LS + opportunistic defrag, LS + look-ahead-behind prefetch, and LS +
selective caching.  :class:`TechniqueConfig` names one such bundle;
:func:`build_translator` constructs a fresh translator for a trace; and
:data:`PAPER_CONFIGS` is the Fig. 11 line-up.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from repro.core import multifrontier
from repro.core.defrag import DefragConfig, OpportunisticDefrag
from repro.core.multifrontier import MultiFrontierTranslator
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator, Translator
from repro.trace.trace import Trace
from repro.util.units import BLOCK_SECTORS, mib_to_sectors
from repro.util.validation import check_fixed


@dataclass(frozen=True)
class MultiFrontierConfig:
    """Hot/cold-separated (WOLF-style) log placement.

    Attaching this to a :class:`TechniqueConfig` swaps the single-frontier
    :class:`LogStructuredTranslator` for a
    :class:`~repro.core.multifrontier.MultiFrontierTranslator`: writes are
    classified by recency and the cold and the hot class each append at
    their own frontier, in a region of
    :data:`~repro.core.multifrontier.REGION_MIB` each.
    """


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
        return MultiFrontierTranslator(
            frontier_base=frontier_base,
            region_sectors=mib_to_sectors(multifrontier.REGION_MIB),
            address_map=make_address_map(address_map_tier),
        )
    return LogStructuredTranslator(
        frontier_base=frontier_base,
        address_map=make_address_map(address_map_tier),
        defrag=OpportunisticDefrag(config.defrag) if config.defrag else None,
        prefetcher=LookAheadBehindPrefetcher(config.prefetch) if config.prefetch else None,
        cache=SelectiveFragmentCache(config.cache) if config.cache else None,
    )


#: The technique parts of a :class:`TechniqueConfig`, by field.
_PARTS = {
    "defrag": DefragConfig,
    "prefetch": PrefetchConfig,
    "cache": SelectiveCacheConfig,
    "multi_frontier": MultiFrontierConfig,
}
#: Fields older ``open`` requests and checkpoint headers still carry whose
#: values are constants now: each is read only at that value.
_RETIRED = {
    "cache": {"block_sectors": BLOCK_SECTORS},
    "multi_frontier": {
        "frontiers": len(multifrontier.FRONTIERS),
        "region_mib": multifrontier.REGION_MIB,
        "window": multifrontier.RECENCY_WINDOW,
        "block_sectors": BLOCK_SECTORS,
    },
}


def config_to_dict(config: TechniqueConfig) -> dict:
    """JSON-serializable encoding of a :class:`TechniqueConfig`.

    Round-trips exactly through :func:`config_from_dict`; used by the
    service wire protocol and checkpoint headers.  A part that is off
    encodes as ``None``; one that is on as its fields (``{}`` for
    :class:`MultiFrontierConfig`, which has none).
    """
    parts = {key: getattr(config, key) for key in _PARTS}
    return {
        "name": config.name,
        "log_structured": config.log_structured,
        **{key: None if part is None else asdict(part) for key, part in parts.items()},
    }


def config_from_dict(data: dict) -> TechniqueConfig:
    """Inverse of :func:`config_to_dict`.  A key it does not know is
    ignored: older checkpoint headers and ``open`` requests carry
    ``"fast"``, which changed no simulated number.  A field in
    :data:`_RETIRED` is accepted at its fixed value and refused at any
    other."""
    parts = {}
    for key, part in _PARTS.items():
        fields, retired = data.get(key), _RETIRED.get(key, {})
        if fields is not None:
            check_fixed(key, fields, retired)
            fields = part(**{name: v for name, v in fields.items() if name not in retired})
        parts[key] = fields
    return TechniqueConfig(
        name=data["name"],
        log_structured=bool(data.get("log_structured", True)),
        **parts,
    )
