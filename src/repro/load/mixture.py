"""Weighted Table-I workload mixtures for multi-tenant serving loads.

A serving tenant is rarely one archetype: a home directory's rename storm
rides on top of a source tree's compile reads and a media volume's long
sequential scans.  :func:`build_mixture` composes such a stream from the
repo's deterministic Table-I generators — each component is generated at
the scale its weight demands, chopped into small runs, and the runs are
riffle-interleaved by position (the same idiom
``repro.workloads.generator`` uses for phase schedules), so the mixture
alternates between archetypes at a granularity the daemon's coalescer
and the translator's cleaning policy both actually feel.

Everything is derived from ``(components, seed, total_ops)`` — two calls
with the same arguments produce identical columns, which is what lets
the differential tests replay a served mixture offline.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.workloads.generator import generate_workload
from repro.workloads.table1 import get_spec

#: Interleave granularity: ops per run when riffling components together.
RUN_OPS = 2048


def _component_columns(
    name: str, ops: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Columns for one archetype truncated to exactly ``ops`` operations."""
    spec = get_spec(name)
    scale = max(ops / max(1, spec.total_ops), 0.001)
    trace = generate_workload(spec, seed=seed, scale=scale)
    if len(trace) < ops:
        raise ValueError(f"{name} at scale {scale:g} has {len(trace)} ops, not {ops}")
    is_read, lba, length = trace.as_arrays()
    return is_read[:ops], lba[:ops], length[:ops], int(trace.max_end)


def build_mixture(
    components: Sequence[Tuple[str, float]],
    total_ops: int,
    seed: int = 0,
    run_ops: int = RUN_OPS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Compose a deterministic mixture stream from Table-I archetypes.

    ``components`` is a sequence of ``(workload_name, weight)``; weights
    are normalized, the ``total_ops`` operations are apportioned to the
    components by largest remainder (exactly ``total_ops`` in all; a
    component whose share is zero drops out), and the streams are riffled
    together in ``run_ops``-sized runs.  Returns
    ``(is_read, lba, length, capacity)``.

    Each component occupies its **own region** of the tenant's LBA space
    (offsets stacked back to back, capacity = the sum) — the way a real
    volume hosts several working sets side by side.  Overlaying unrelated
    workloads onto the *same* sectors would shred every component's
    locality and benchmark extent-map pathology instead of the traffic
    mix.
    """
    if not components:
        raise ValueError("mixture needs at least one component")
    if total_ops <= 0:
        raise ValueError(f"total_ops must be positive, got {total_ops}")
    weights = np.asarray([w for _, w in components], dtype=np.float64)
    if (weights <= 0).any():
        raise ValueError("component weights must be positive")
    quotas = weights / weights.sum() * total_ops
    shares = np.floor(quotas).astype(np.int64)
    leftover = total_ops - int(shares.sum())
    shares[np.argsort(shares - quotas, kind="stable")[:leftover]] += 1

    columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    capacity = 0
    for (name, _), ops in zip(components, shares.tolist()):
        if ops == 0:
            continue
        is_read, lba, length, max_end = _component_columns(name, ops, seed)
        columns.append((is_read, lba + capacity, length))
        capacity += max_end

    if len(columns) == 1:
        is_read, lba, length = columns[0]
        return is_read, lba, length, capacity

    # Riffle by run position: split each component into run_ops-sized
    # runs, then emit run 0 of every component, run 1 of every component,
    # and so on — components that run out simply drop out of later rounds.
    run_ops = max(1, int(run_ops))
    rounds = max(int(np.ceil(len(c[1]) / run_ops)) for c in columns)
    pieces: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for round_idx in range(rounds):
        start = round_idx * run_ops
        for is_read, lba, length in columns:
            if start < len(lba):
                stop = min(start + run_ops, len(lba))
                pieces.append((is_read[start:stop], lba[start:stop], length[start:stop]))
    is_read = np.concatenate([p[0] for p in pieces])
    lba = np.concatenate([p[1] for p in pieces])
    length = np.concatenate([p[2] for p in pieces])
    return is_read, lba, length, capacity


#: Named mixtures for multi-tenant serving loads (ROADMAP item 1).
#: Weights echo Table I's population: user/home churn dominates, with
#: compile-read and media-scan traffic in supporting roles.
PRESET_MIXTURES = {
    "user_heavy": (("usr_0", 0.6), ("src2_2", 0.25), ("hm_1", 0.15)),
    "media_scan": (("mds_0", 0.5), ("web_0", 0.3), ("usr_0", 0.2)),
    "compile": (("src2_2", 0.55), ("hm_1", 0.3), ("wdev_0", 0.15)),
    # Zipf-hot read service (the paper's Fig. 7 subject plus usr_1's
    # read-dominant churn): the replay engine is fastest here, which
    # makes this the mixture that exposes the *data plane* — wire
    # format, fsync discipline, protocol overhead — rather than
    # translator work.
    "read_hot": (("hm_1", 0.8), ("usr_1", 0.2)),
}


def preset(name: str) -> Sequence[Tuple[str, float]]:
    """Look up a named mixture; raises KeyError with the valid names."""
    try:
        return PRESET_MIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown mixture {name!r}; valid: {sorted(PRESET_MIXTURES)}"
        ) from None
