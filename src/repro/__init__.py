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

Sub-packages (only ``repro.workloads``' ``__init__`` holds code: import
a name from the module that defines it, e.g. ``repro.core.batch``):

* :mod:`repro.core` — translators, techniques (one class each, holding
  its own state), simulator, SAF metric, and the batch/stream replay
  kernels.
* :mod:`repro.extentmap` — LBA→PBA extent mapping structures.
* :mod:`repro.disk` — head/seek model, seek-time costs, SMR zones.
* :mod:`repro.trace` — trace records, parsers (MSR, CloudPhysics), I/O,
  the strict/lenient/quarantine parse error policies, and the
  compiled-trace store.
* :mod:`repro.workloads` — synthetic workload archetypes for the paper's
  21 Table-I traces (its ``__init__`` defines :func:`synthesize_workload`
  and keeps its registry names).
* :mod:`repro.analysis` — fragmentation, seek-distance, mis-ordered-write
  and popularity analyses behind the paper's figures.
* :mod:`repro.experiments` — regenerate every table and figure.
* :mod:`repro.service` — the supervised multi-tenant streaming replay
  daemon (``python -m repro serve``).
* :mod:`repro.load` — deterministic multi-tenant traffic mixtures and
  arrival schedules.
* :mod:`repro.util` — units, validation, RNG, statistics, atomic I/O.
"""

from repro.core.config import (
    LS,
    LS_CACHE,
    LS_DEFRAG,
    LS_PREFETCH,
    NOLS,
    PAPER_CONFIGS,
    MultiFrontierConfig,
    TechniqueConfig,
    build_translator,
)
from repro.core.defrag import DefragConfig
from repro.core.metrics import SeekAmplification, seek_amplification
from repro.core.prefetch import PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig
from repro.core.simulator import Simulator, replay
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.workloads import TABLE1, synthesize_workload

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
