"""Per-operation result types returned by translators.

Every :meth:`Translator.submit` call returns an :class:`IOOutcome`
describing exactly which physical accesses served the request, which of
them seeked, and what each seek-reduction technique contributed.  Recorders
and the analysis layer consume these outcomes; nothing downstream needs to
re-derive physical behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.trace.record import IORequest


class AccessSource(enum.Enum):
    """Where the data for one physical segment came from."""

    DISK = "disk"
    CACHE = "cache"          # translation-aware selective cache hit
    BUFFER = "buffer"        # look-ahead-behind prefetch buffer hit


@dataclass(frozen=True)
class SegmentAccess:
    """One physically contiguous piece of a request's service.

    Attributes:
        pba: First physical sector of the piece.
        length: Sector count.
        source: Medium that served it; only DISK accesses can seek.
        seek: Whether serving it moved the head non-contiguously.
        distance: Signed seek distance in sectors (0 when not a seek).
        hole: True if the piece resolves "unwritten" data at PBA = LBA.
        defrag: True for the log rewrite appended by opportunistic
            defragmentation (seeks on it are write-direction).
    """

    pba: int
    length: int
    source: AccessSource
    seek: bool
    distance: int
    hole: bool = False
    defrag: bool = False


@dataclass(frozen=True)
class IOOutcome:
    """Full account of how one request was served.

    Attributes:
        request: The request served.
        accesses: Segment accesses in service order (includes cache and
            buffer hits, which never seek).
        fragments: Number of physical segments the logical range resolved
            to — the paper's *dynamic fragmentation* of this read (1 for
            writes and unfragmented reads).
        read_seeks / write_seeks: Seeks charged to this request, classified
            by the direction of the seeking operation (§II).
        defrag_write_seeks: Seeks incurred by an opportunistic-defrag
            rewrite triggered by this read (charged as write seeks in
            totals).
        defrag_rewritten_sectors: Sectors rewritten by that defrag.
        cache_fragment_hits: Fragments served from the selective cache.
        buffer_fragment_hits: Fragments served from the prefetch buffer.
    """

    request: IORequest
    accesses: Tuple[SegmentAccess, ...]
    fragments: int
    read_seeks: int
    write_seeks: int
    defrag_write_seeks: int = 0
    defrag_rewritten_sectors: int = 0
    cache_fragment_hits: int = 0
    buffer_fragment_hits: int = 0

    @property
    def fragmented(self) -> bool:
        """True when the request resolved to more than one physical piece."""
        return self.fragments > 1


@dataclass
class SimStats:
    """Aggregate counters over a replay (summed :class:`IOOutcome` fields)."""

    reads: int = 0
    writes: int = 0
    read_seeks: int = 0
    write_seeks: int = 0
    defrag_write_seeks: int = 0
    fragmented_reads: int = 0
    read_fragments: int = 0
    cache_fragment_hits: int = 0
    buffer_fragment_hits: int = 0
    defrag_rewrites: int = 0
    defrag_rewritten_sectors: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    # Always zero: kept because ``asdict(SimStats)`` is a serialised format.
    transient_errors: int = 0
    retried_ops: int = 0
    retry_backoff_s: float = 0.0

    @property
    def total_seeks(self) -> int:
        """All seeks: host reads + host writes + defrag rewrites."""
        return self.read_seeks + self.write_seeks + self.defrag_write_seeks

    @property
    def total_write_seeks(self) -> int:
        """Write-direction seeks including defrag traffic."""
        return self.write_seeks + self.defrag_write_seeks

    def absorb(self, outcome: IOOutcome) -> None:
        """Fold one outcome into the aggregate."""
        request = outcome.request
        if request.is_read:
            self.reads += 1
            self.sectors_read += request.length
            self.read_fragments += outcome.fragments
            if outcome.fragmented:
                self.fragmented_reads += 1
        else:
            self.writes += 1
            self.sectors_written += request.length
        self.read_seeks += outcome.read_seeks
        self.write_seeks += outcome.write_seeks
        self.defrag_write_seeks += outcome.defrag_write_seeks
        self.cache_fragment_hits += outcome.cache_fragment_hits
        self.buffer_fragment_hits += outcome.buffer_fragment_hits
        if outcome.defrag_rewritten_sectors:
            self.defrag_rewrites += 1
            self.defrag_rewritten_sectors += outcome.defrag_rewritten_sectors
