"""Synthetic trace generation from a :class:`WorkloadSpec`.

The generator is a phase machine: each of ``spec.phases`` cycles emits a
write burst followed by a read burst, with per-pattern sub-bursts sized by
the spec's mix weights.  This produces the structures the paper measures:

* bursts of clustered hot-region overwrites fragment the logical space;
* sequential scans then traverse that fragmented space in LBA order
  (the §III "sequential read after random write" amplification case);
* mis-ordered runs write ascending data in locally reversed chunks
  (Fig. 7), creating the missed-rotation hazard;
* replay reads consume recent writes in write order (the log-friendly
  §III case);
* the phase beat yields the temporal burstiness of Fig. 3.

Traces are pure functions of ``(spec, seed, scale)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.trace.columnar import ColumnarTrace, TraceColumns
from repro.util.rngtools import SeedSequenceFactory
from repro.util.units import kib_to_sectors, mib_to_sectors
from repro.workloads.patterns import (
    BLOCK_SECTORS,
    ClusteredOverwritePattern,
    MisorderedPattern,
    RandomAccessPattern,
    ReplayReadPattern,
    SequentialPattern,
    WrittenExtentLog,
    ZipfRereadPattern,
    sample_size,
)
from repro.workloads.spec import WorkloadSpec

_OP_INTERVAL_S = 0.001       # virtual inter-arrival time
_PHASE_GAP_S = 60.0          # idle gap between phases (the diurnal beat)


def _split_counts(total: int, weights: Tuple[float, ...]) -> List[int]:
    """Apportion ``total`` into integer counts proportional to ``weights``."""
    weight_sum = sum(weights)
    counts = [int(total * w / weight_sum) for w in weights]
    counts[0] += total - sum(counts)  # remainder to the first bucket
    return counts


def _interleave_schedule(groups: List[Tuple[str, int]]) -> List[str]:
    """Merge ``(tag, count)`` groups into one evenly interleaved schedule.

    Each group's occurrences are spread uniformly over [0, 1) and merged by
    position (a deterministic riffle), so e.g. 300 hot overwrites and 100
    sequential writes come out hot, hot, hot, seq, hot, hot, hot, seq, …
    """
    positioned: List[Tuple[float, int, str]] = []
    for order, (tag, count) in enumerate(groups):
        for i in range(count):
            positioned.append(((i + 0.5) / count, order, tag))
    positioned.sort()
    return [tag for _, _, tag in positioned]


def _check_ranges(lba: np.ndarray, length: np.ndarray) -> None:
    """The per-op :class:`~repro.trace.record.IORequest` range checks, made
    once on the columns: the first offending op raises, with that text."""
    bad = np.flatnonzero((lba < 0) | (length <= 0))
    if len(bad):
        first = bad[0]
        if lba[first] < 0:
            raise ValueError(f"lba must be >= 0, got {lba[first]}")
        raise ValueError(f"length must be > 0, got {length[first]}")


class WorkloadGenerator:
    """Builds traces for one spec; reusable across scales and seeds."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self._spec = spec

    def generate(self, seed: int = 42, scale: float = 1.0) -> ColumnarTrace:
        """Generate the archetype trace, as columns (no per-op object).

        Args:
            seed: Root seed; every derived random stream is a pure function
                of it.
            scale: Multiplier on operation count (structure is preserved:
                the same phases, proportionally smaller bursts).
        """
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        spec = self._spec
        seeds = SeedSequenceFactory(seed)

        ws = mib_to_sectors(spec.working_set_mib)
        hot_len = mib_to_sectors(spec.hot_mib)
        hot_start = ((ws - hot_len) // 2 // BLOCK_SECTORS) * BLOCK_SECTORS

        log = WrittenExtentLog(hot_targets_max=spec.hot_targets_max)
        write_random = RandomAccessPattern(
            seeds.rng_for("write.random"), 0, ws, spec.mean_write_kib
        )
        write_hot = ClusteredOverwritePattern(
            seeds.rng_for("write.hot"),
            hot_start,
            hot_len,
            spec.mean_write_kib,
            cluster=spec.overwrite_cluster,
            span_sectors=kib_to_sectors(spec.cluster_span_kib),
        )
        write_seq = SequentialPattern(0, ws, spec.mean_write_kib)
        if spec.misorder_in_hot:
            misorder_start, misorder_len = hot_start, hot_len
        else:
            # Cold region below the hot region: the descending-run pattern
            # exists in the write stream (Fig. 7) but reads rarely visit it.
            misorder_len = max(BLOCK_SECTORS, hot_start // 2 // BLOCK_SECTORS * BLOCK_SECTORS)
            misorder_start = 0
        write_misordered = MisorderedPattern(misorder_start, misorder_len, spec.mean_write_kib)
        read_scan = SequentialPattern(hot_start, hot_len, spec.mean_read_kib)
        read_random = RandomAccessPattern(
            seeds.rng_for("read.random"), 0, ws, spec.mean_read_kib,
            cap_kib=4096.0, bulk_p=0.01,
        )
        read_hot = ZipfRereadPattern(seeds.rng_for("read.hot"), log, spec.zipf_alpha)
        read_replay = ReplayReadPattern(log)
        hot_rng = seeds.rng_for("read.hot.span")

        n_reads = max(0, round(spec.n_reads * scale))
        n_writes = max(1, round(spec.n_writes * scale))
        write_phase_weights = tuple(
            spec.write_phase_decay ** i for i in range(spec.phases)
        )
        writes_per_phase = _split_counts(n_writes, write_phase_weights)
        reads_per_phase = _split_counts(n_reads, tuple([1.0] * spec.phases))

        stamps, is_read, lbas, lengths = buffers = [], [], [], []
        clock = 0.0

        def emit(read: bool, span: Tuple[int, int]) -> None:
            nonlocal clock
            stamps.append(clock)
            is_read.append(read)
            lbas.append(span[0])
            lengths.append(span[1])
            clock += _OP_INTERVAL_S

        def emit_write(tag: str) -> None:
            if tag == "hot":
                lba, length = write_hot.emit()
                in_hot = True
            elif tag == "misordered":
                lba, length = write_misordered.emit()
                in_hot = spec.misorder_in_hot
            elif tag == "sequential":
                lba, length = write_seq.emit()
                in_hot = False
            else:  # random
                lba, length = write_random.emit()
                in_hot = hot_start <= lba < hot_start + hot_len
            emit(False, (lba, length))
            log.note_write(lba, length, in_hot=in_hot)

        for phase in range(spec.phases):
            wr_counts = _split_counts(writes_per_phase[phase], spec.write_mix.as_tuple())
            # Hot overwrites first (they fragment), then mis-ordered runs,
            # sequential streams and random writes — unless the spec asks
            # for interleaving, which spaces hot fragments apart in the log.
            groups = [
                ("hot", wr_counts[1]),
                ("misordered", wr_counts[3]),
                ("sequential", wr_counts[2]),
                ("random", wr_counts[0]),
            ]
            if spec.interleave_writes:
                for tag in _interleave_schedule([g for g in groups if g[1] > 0]):
                    emit_write(tag)
            else:
                for tag, count in groups:
                    for _ in range(count):
                        emit_write(tag)

            rd_counts = _split_counts(reads_per_phase[phase], spec.read_mix.as_tuple())
            # A pattern with nothing to re-read yet yields None: a random read.
            for _ in range(rd_counts[3]):  # replay reads (log-friendly)
                emit(True, read_replay.emit() or read_random.emit())
            for _ in range(rd_counts[0]):  # sequential scans of the hot region
                emit(True, read_scan.emit())
            for _ in range(rd_counts[2]):  # Zipf re-reads around hot extents
                span = self._hot_read_span(read_hot, hot_rng, hot_start, hot_len)
                emit(True, span or read_random.emit())
            for _ in range(rd_counts[1]):  # random reads
                emit(True, read_random.emit())

            clock += _PHASE_GAP_S

        columns = TraceColumns(*buffers)
        _check_ranges(columns.lba, columns.length)
        return ColumnarTrace(columns, name=spec.name)

    def _hot_read_span(
        self,
        read_hot: ZipfRereadPattern,
        rng,
        hot_start: int,
        hot_len: int,
    ) -> Optional[Tuple[int, int]]:
        """Build a read covering a popular hot extent plus its neighbourhood.

        Reading a window around the target (rather than the exact extent)
        makes the read span multiple physical pieces — the fragmented-read
        population that selective caching and defragmentation act on.  The
        window's placement over the target jitters between reads, the way
        application reads of a record drag in varying slack around it; the
        jitter is what makes opportunistic defrag's relocation hurt
        re-reads of *overlapping-but-unequal* ranges (the Fig. 6 t_F
        effect): no rewrite ever covers the next window exactly.
        """
        target = read_hot.emit()
        if target is None:
            return None
        t_lba, t_len = target
        size = max(
            sample_size(rng, self._spec.mean_read_kib),
            t_len + 2 * BLOCK_SECTORS,
        )
        slack = size - t_len
        pad = (rng.randrange(0, slack + 1) // BLOCK_SECTORS) * BLOCK_SECTORS
        lba = max(hot_start, t_lba - pad)
        end = min(hot_start + hot_len, lba + size)
        return lba, max(BLOCK_SECTORS, end - lba)


def generate_workload(
    spec: WorkloadSpec, seed: int = 42, scale: float = 1.0
) -> ColumnarTrace:
    """Module-level convenience: ``WorkloadGenerator(spec).generate(...)``."""
    return WorkloadGenerator(spec).generate(seed=seed, scale=scale)
