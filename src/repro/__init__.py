"""repro — a reproduction of *Minimizing Read Seeks for SMR Disk*
(Hajkazemi, Abdi, Desnoyers; IISWC 2018).

A trace-driven simulator of log-structured block translation layers for
SMR disks, measuring read-seek amplification and implementing the paper's
three seek-reduction mechanisms: opportunistic defragmentation,
translation-aware look-ahead-behind prefetching, and translation-aware
selective caching.

Quickstart::

    from repro import (
        synthesize_workload, build_translator, replay, seek_amplification,
        NOLS, LS,
    )

    trace = synthesize_workload("w91", seed=7)
    base = replay(trace, build_translator(trace, NOLS))
    ls = replay(trace, build_translator(trace, LS))
    print(seek_amplification(ls.stats, base.stats))

Sub-packages:

* :mod:`repro.core` — translators, techniques, simulator, SAF metric.
* :mod:`repro.extentmap` — LBA→PBA extent mapping structures.
* :mod:`repro.disk` — head/seek model, seek-time costs, SMR zones.
* :mod:`repro.cache` — LRU and prefetch-buffer substrates.
* :mod:`repro.trace` — trace records, parsers (MSR, CloudPhysics), I/O,
  and the strict/lenient/quarantine parse error policies.
* :mod:`repro.workloads` — synthetic workload archetypes for the paper's
  21 Table-I traces.
* :mod:`repro.analysis` — fragmentation, seek-distance, mis-ordered-write
  and popularity analyses behind the paper's figures.
* :mod:`repro.experiments` — regenerate every table and figure.
"""

from repro.core import (
    InPlaceTranslator,
    LogStructuredTranslator,
    DefragConfig,
    MultiFrontierConfig,
    PrefetchConfig,
    SelectiveCacheConfig,
    Simulator,
    replay,
    SeekAmplification,
    seek_amplification,
    TechniqueConfig,
    build_translator,
    NOLS,
    LS,
    LS_DEFRAG,
    LS_PREFETCH,
    LS_CACHE,
    PAPER_CONFIGS,
)
from repro.trace import IORequest, OpType, Trace
from repro.workloads import synthesize_workload, TABLE1

__version__ = "1.0.0"

__all__ = [
    "InPlaceTranslator",
    "LogStructuredTranslator",
    "DefragConfig",
    "MultiFrontierConfig",
    "PrefetchConfig",
    "SelectiveCacheConfig",
    "Simulator",
    "replay",
    "SeekAmplification",
    "seek_amplification",
    "TechniqueConfig",
    "build_translator",
    "NOLS",
    "LS",
    "LS_DEFRAG",
    "LS_PREFETCH",
    "LS_CACHE",
    "PAPER_CONFIGS",
    "IORequest",
    "OpType",
    "Trace",
    "synthesize_workload",
    "TABLE1",
    "__version__",
]
