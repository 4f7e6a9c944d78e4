"""The paper's primary contribution: log-structured translation with
seek accounting and three seek-reduction techniques.

Typical use::

    from repro.core import build_translator, replay, seek_amplification, NOLS, LS_CACHE

    baseline = replay(trace, build_translator(trace, NOLS))
    cached = replay(trace, build_translator(trace, LS_CACHE))
    saf = seek_amplification(cached.stats, baseline.stats)
"""

from repro.core.outcomes import AccessSource, IOOutcome, SegmentAccess, SimStats
from repro.core.translators import (
    Translator,
    InPlaceTranslator,
    LogStructuredTranslator,
)
from repro.core.defrag import DefragConfig, OpportunisticDefrag
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.simulator import RunResult, Simulator, replay
from repro.core.batch import (
    BatchRunResult,
    BatchUnsupportedError,
    batch_replay,
    batch_replay_translator,
)
from repro.core.stream import (
    FragmentStream,
    StreamRunResult,
    StreamUnsupportedError,
    cache_hit_thresholds,
    record_fragment_stream,
    stream_cache_sweep,
    stream_fragment_stats,
    stream_replay,
    stream_windowed_long_seeks,
    supports_cache_sweep,
    supports_stream,
)
from repro.core.recorders import (
    Recorder,
    SeekRecord,
    SeekLogRecorder,
    OutcomeLogRecorder,
    FragmentationRecorder,
)
from repro.core.metrics import SeekAmplification, seek_amplification, time_amplification
from repro.core.cleaning import CleaningStats, ZonedCleaningTranslator
from repro.core.multifrontier import MultiFrontierTranslator, RecencyClassifier
from repro.core.config import (
    MultiFrontierConfig,
    TechniqueConfig,
    build_translator,
    NOLS,
    LS,
    LS_DEFRAG,
    LS_PREFETCH,
    LS_CACHE,
    LS_ALL,
    PAPER_CONFIGS,
    ALL_CONFIGS,
)

__all__ = [
    "AccessSource",
    "IOOutcome",
    "SegmentAccess",
    "SimStats",
    "Translator",
    "InPlaceTranslator",
    "LogStructuredTranslator",
    "DefragConfig",
    "OpportunisticDefrag",
    "LookAheadBehindPrefetcher",
    "PrefetchConfig",
    "SelectiveCacheConfig",
    "SelectiveFragmentCache",
    "RunResult",
    "Simulator",
    "replay",
    "BatchRunResult",
    "BatchUnsupportedError",
    "batch_replay",
    "batch_replay_translator",
    "FragmentStream",
    "StreamRunResult",
    "StreamUnsupportedError",
    "cache_hit_thresholds",
    "record_fragment_stream",
    "stream_cache_sweep",
    "stream_fragment_stats",
    "stream_replay",
    "stream_windowed_long_seeks",
    "supports_cache_sweep",
    "supports_stream",
    "Recorder",
    "SeekRecord",
    "SeekLogRecorder",
    "OutcomeLogRecorder",
    "FragmentationRecorder",
    "SeekAmplification",
    "seek_amplification",
    "time_amplification",
    "CleaningStats",
    "ZonedCleaningTranslator",
    "MultiFrontierTranslator",
    "RecencyClassifier",
    "MultiFrontierConfig",
    "TechniqueConfig",
    "build_translator",
    "NOLS",
    "LS",
    "LS_DEFRAG",
    "LS_PREFETCH",
    "LS_CACHE",
    "LS_ALL",
    "PAPER_CONFIGS",
    "ALL_CONFIGS",
]
