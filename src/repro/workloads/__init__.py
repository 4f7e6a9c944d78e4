"""Synthetic workload engine: archetypes for the paper's 21 Table-I traces.

The MSR and CloudPhysics traces the paper replays are not redistributable;
this package substitutes calibrated synthetic archetypes whose structural
parameters (write intensity, scan behaviour, mis-ordered writes, fragment
popularity skew, hot-region size) reproduce each workload's qualitative
seek behaviour.  See DESIGN.md §2 for the substitution argument.  Each
:data:`TABLE1` entry also records the paper's verdicts on it
(:class:`Expectations`); ``tests/integration/test_paper_shapes.py`` holds
every archetype to them.

Primary entry point::

    trace = synthesize_workload("w91", seed=7)          # paper archetype
    trace = generate_workload(my_spec, seed=7)          # custom spec
"""

from repro.trace.trace import Trace
from repro.workloads.spec import ReadMix, WorkloadSpec, WriteMix
from repro.util.units import BLOCK_SECTORS
from repro.workloads.generator import WorkloadGenerator, generate_workload
from repro.workloads.table1 import (
    TABLE1,
    Table1Entry,
    PaperRow,
    Expectations,
    MSR_WORKLOADS,
    CLOUDPHYSICS_WORKLOADS,
    FIG2_MSR,
    FIG2_CLOUDPHYSICS,
    FIG3_WORKLOADS,
    FIG4_WORKLOADS,
    FIG5_WORKLOADS,
    FIG7_WORKLOADS,
    FIG10_WORKLOADS,
    get_spec,
)


def synthesize_workload(name: str, seed: int = 42, scale: float = 1.0) -> Trace:
    """Generate the synthetic archetype for a Table I workload.

    Args:
        name: Table I workload name (e.g. ``"w91"``, ``"usr_0"``).
        seed: Root RNG seed; the trace is a pure function of (name, seed,
            scale).
        scale: Operation-count multiplier (1.0 = the registry's default
            scaled-down size; raise it for higher-fidelity replays).
    """
    return generate_workload(get_spec(name), seed=seed, scale=scale)


__all__ = [
    "ReadMix",
    "WorkloadSpec",
    "WriteMix",
    "BLOCK_SECTORS",
    "WorkloadGenerator",
    "generate_workload",
    "synthesize_workload",
    "Trace",
    "TABLE1",
    "Table1Entry",
    "PaperRow",
    "Expectations",
    "MSR_WORKLOADS",
    "CLOUDPHYSICS_WORKLOADS",
    "FIG2_MSR",
    "FIG2_CLOUDPHYSICS",
    "FIG3_WORKLOADS",
    "FIG4_WORKLOADS",
    "FIG5_WORKLOADS",
    "FIG7_WORKLOADS",
    "FIG10_WORKLOADS",
    "get_spec",
]
