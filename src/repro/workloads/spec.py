"""Workload specification: the knobs that determine seek behaviour.

DESIGN.md §2 argues that every result in the paper is a function of a small
set of trace properties; :class:`WorkloadSpec` makes each an explicit
parameter:

* **write intensity** (op counts + ``read_fraction``) — drives how much
  log-structuring saves on write seeks (§V's explanation of MSR SAF < 1);
* **write structure** (:class:`WriteMix`) — random overwrites create
  fragmentation; mis-ordered runs create the missed-rotation pattern
  prefetching targets (Fig. 7/8);
* **read structure** (:class:`ReadMix`) — sequential scans over fragmented
  data create read-seek amplification (§III's thought experiment);
  temporal-replay reads make a workload log-*friendly*;
* **re-access behaviour** (``scan`` volume vs. hot-region size, Zipf
  skew) — decides whether defragmentation pays off and whether a 64 MB
  selective cache captures the popular fragments (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


def _check_weights(name: str, weights: Tuple[float, ...]) -> None:
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} weights must be >= 0, got {weights}")
    if sum(weights) <= 0:
        raise ValueError(f"{name} weights must not all be zero")


@dataclass(frozen=True)
class WriteMix:
    """How write operations are structured.

    Attributes:
        random: Uniform random writes across the whole working set
            (seek-heavy on a conventional drive → log-friendly).
        hot_overwrite: Small random overwrites inside the hot region,
            issued in spatial clusters (the fragmentation generator).
        sequential: Ascending sequential append streams.
        misordered: Sequential runs emitted in locally reversed chunks —
            the Fig. 7 pattern that produces mis-ordered writes.
    """

    random: float = 1.0
    hot_overwrite: float = 0.0
    sequential: float = 0.0
    misordered: float = 0.0

    def __post_init__(self) -> None:
        _check_weights("WriteMix", self.as_tuple())

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.random, self.hot_overwrite, self.sequential, self.misordered)


@dataclass(frozen=True)
class ReadMix:
    """How read operations are structured.

    Attributes:
        scan: Sequential passes over the hot region (the log-sensitive
            pattern: ordered reads of temporally scattered data).
        random: Uniform random reads across the working set.
        hot: Zipf-skewed re-reads of previously overwritten extents
            (the fragment-popularity pattern selective caching exploits).
        replay: Read-back of recently written data in write order
            (the log-friendly pattern: temporal read order mimics writes).
    """

    scan: float = 0.0
    random: float = 1.0
    hot: float = 0.0
    replay: float = 0.0

    def __post_init__(self) -> None:
        _check_weights("ReadMix", self.as_tuple())

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.scan, self.random, self.hot, self.replay)


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete recipe for one synthetic workload archetype.

    Attributes:
        name: Workload id (matches the paper's Table I row).
        family: ``"msr"`` or ``"cloudphysics"``.
        total_ops: Operations to generate at scale 1.0.
        read_fraction: Fraction of operations that are reads.
        mean_read_kib / mean_write_kib: Mean request sizes.
        working_set_mib: Addressable span of the workload.
        hot_mib: Size of the hot (database/file) region inside it.
        write_mix / read_mix: Operation structure weights.
        zipf_alpha: Skew of hot re-reads (higher = more cacheable).
        hot_targets_max: Population of distinct hot extents eligible for
            re-reads; with low ``zipf_alpha`` and a large population the
            re-read working set exceeds a small cache (usr_1 / src2_2).
        overwrite_cluster: Hot overwrites per spatial cluster (>= 2 makes
            a scan's fragments physically adjacent in the log, which
            look-ahead-behind prefetching exploits; 1 scatters them).
        cluster_span_kib: LBA span of one overwrite cluster.
        interleave_writes: If True, the patterns of a write burst are
            interleaved evenly rather than emitted as contiguous
            sub-bursts.  Interleaving spaces hot-region overwrites apart in
            the log (other patterns' writes land between them), so a later
            scan's fragments are physically distant and look-ahead-behind
            prefetching gains little — the usr_1 / hm_1 / w55 / w33 shape.
        misorder_in_hot: Whether mis-ordered runs sweep the hot region
            (True: later scans read them back, so prefetching pays — the
            w84/w95/w91 shape) or a cold region (False: the Fig. 7 hm_1
            pattern exists in the write stream but reads rarely touch it,
            so prefetching gains little).
        phases: Write-burst/read-burst cycles (the Fig. 3 temporal beat).
        write_phase_decay: Geometric decay of per-phase write volume
            (1.0 = even; 0.3 = most writes land in the first phases, the
            archival accumulate-then-read shape).  Front-loading keeps the
            fragment population stable across later read phases, which is
            what lets a small selective cache reach very high hit rates
            (the w91 shape).
    """

    name: str
    family: str
    total_ops: int
    read_fraction: float
    mean_read_kib: float
    mean_write_kib: float
    working_set_mib: int
    hot_mib: int
    write_mix: WriteMix = field(default_factory=WriteMix)
    read_mix: ReadMix = field(default_factory=ReadMix)
    zipf_alpha: float = 1.1
    hot_targets_max: int = 2048
    overwrite_cluster: int = 1
    cluster_span_kib: float = 512.0
    interleave_writes: bool = False
    misorder_in_hot: bool = True
    phases: int = 8
    write_phase_decay: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in ("msr", "cloudphysics"):
            raise ValueError(f"family must be msr|cloudphysics, got {self.family!r}")
        if self.total_ops <= 0:
            raise ValueError(f"total_ops must be > 0, got {self.total_ops}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0,1], got {self.read_fraction}")
        if self.mean_read_kib <= 0 or self.mean_write_kib <= 0:
            raise ValueError("mean request sizes must be > 0")
        if self.hot_mib <= 0 or self.working_set_mib <= 0:
            raise ValueError("region sizes must be > 0")
        if self.hot_mib > self.working_set_mib:
            raise ValueError(
                f"hot_mib {self.hot_mib} exceeds working_set_mib {self.working_set_mib}"
            )
        if self.zipf_alpha < 0:
            raise ValueError(f"zipf_alpha must be >= 0, got {self.zipf_alpha}")
        if self.hot_targets_max <= 0:
            raise ValueError(f"hot_targets_max must be > 0, got {self.hot_targets_max}")
        if self.overwrite_cluster < 1:
            raise ValueError(f"overwrite_cluster must be >= 1, got {self.overwrite_cluster}")
        if self.cluster_span_kib <= 0:
            raise ValueError(f"cluster_span_kib must be > 0, got {self.cluster_span_kib}")
        if self.phases < 1:
            raise ValueError(f"phases must be >= 1, got {self.phases}")
        if not 0.0 < self.write_phase_decay <= 1.0:
            raise ValueError(
                f"write_phase_decay must be in (0, 1], got {self.write_phase_decay}"
            )

    @property
    def n_reads(self) -> int:
        return round(self.total_ops * self.read_fraction)

    @property
    def n_writes(self) -> int:
        return self.total_ops - self.n_reads
