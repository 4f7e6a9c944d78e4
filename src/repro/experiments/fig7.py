"""Fig. 7 — examples of highly non-sequential LBA write patterns."""

from __future__ import annotations

from repro.experiments.render import sparkline
from repro.workloads import FIG7_WORKLOADS

SAMPLE_OPS = 400


def _descending_step_fraction(lbas) -> float:
    """Fraction of consecutive write pairs (an LBA column) whose LBA decreases."""
    return int((lbas[1:] < lbas[:-1]).sum()) / max(1, len(lbas) - 1)


def write_sample(engine, trace) -> dict:
    """The Fig. 7 row of one workload: its first write LBAs and how often
    consecutive writes step backwards."""
    is_read, lba, _ = trace.as_arrays()
    write_lbas = lba[~is_read]
    window = write_lbas[:SAMPLE_OPS].tolist()
    return {
        "sample_ops": len(window),
        "lbas": window,
        "descending_step_fraction_sample": round(
            _descending_step_fraction(write_lbas[:SAMPLE_OPS]), 4
        ),
        "descending_step_fraction_all": round(_descending_step_fraction(write_lbas), 4),
    }


#: The write sample of every Fig. 7 workload.
NEEDS = {name: [write_sample] for name in FIG7_WORKLOADS}


def run(engine) -> dict:
    """Regenerate Fig. 7 for hm_1 and w106: a window of the write stream's
    LBAs, showing locally descending runs (the mis-ordered pattern).

    Shape to check: a visible fraction of consecutive writes step
    *backwards* in LBA even though the data is logically sequential.
    """
    data = {}
    for name in FIG7_WORKLOADS:
        data[name] = engine.analysis(name, write_sample)
        print(
            f"Fig. 7 [{name}] first {data[name]['sample_ops']} write LBAs "
            f"({data[name]['descending_step_fraction_all']:.1%} of all "
            f"consecutive writes step backwards):"
        )
        print("  " + sparkline([float(x) for x in data[name]["lbas"]]))
    return data
