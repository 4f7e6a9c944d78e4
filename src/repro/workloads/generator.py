"""Synthetic trace generation from a :class:`WorkloadSpec`.

The generator is a phase machine: each of ``spec.phases`` cycles emits a
write burst followed by a read burst, with per-pattern sub-bursts sized by
the spec's mix weights.  This produces the structures the paper measures:

* bursts of clustered hot-region overwrites fragment the logical space;
* sequential scans then traverse that fragmented space in LBA order
  (the §III "sequential read after random write" amplification case);
* mis-ordered runs write ascending data in locally reversed chunks of
  four (Fig. 7), creating the missed-rotation hazard;
* replay reads consume the last 32 writes in write order (the
  log-friendly §III case);
* Zipf re-reads of the first ``hot_targets_max`` hot-region writes read a
  jittered window around the extent (the fragment popularity of Fig. 10);
* the phase beat yields the temporal burstiness of Fig. 3.

Python apportions the ops to phases and patterns and seeds the five random
streams (``random.Random``, one per label, from
:class:`~repro.util.rngtools.SeedSequenceFactory`); the op loop is
``wl_generate`` in the compiled kernels (:mod:`repro.util.native`), which
takes each stream's ``getstate()`` words and draws exactly as CPython 3.11
does, so the columns match the synthesis digests pinned from a pure-Python
generator on any interpreter.  Traces are pure functions of ``(spec, seed,
scale)``.
"""

from __future__ import annotations

import ctypes
from typing import List, Tuple

import numpy as np

from repro.trace.trace import Trace, TraceColumns
from repro.util.native import LIBRARY
from repro.util.rngtools import SeedSequenceFactory
from repro.util.units import BLOCK_SECTORS, kib_to_sectors, mib_to_sectors
from repro.workloads.spec import WorkloadSpec

#: The random streams, in the order ``wl_generate`` takes their states.
_STREAMS = ("write.random", "write.hot", "read.random", "read.hot", "read.hot.span")

LIBRARY.wl_generate.restype = ctypes.c_int64
LIBRARY.wl_generate.argtypes = (*[ctypes.c_void_p] * 3, *[ctypes.c_double] * 3,
                                *[ctypes.c_void_p] * 4)


def _split_counts(total: int, weights: Tuple[float, ...]) -> List[int]:
    """Apportion ``total`` into integer counts proportional to ``weights``."""
    weight_sum = sum(weights)
    counts = [int(total * w / weight_sum) for w in weights]
    counts[0] += total - sum(counts)  # remainder to the first bucket
    return counts


def _block_size(kib: float) -> int:
    return max(BLOCK_SECTORS, kib_to_sectors(kib) // BLOCK_SECTORS * BLOCK_SECTORS)


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

    def generate(self, seed: int = 42, scale: float = 1.0) -> Trace:
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
        if spec.misorder_in_hot:
            misorder_start, misorder_len = hot_start, hot_len
        else:
            # Cold region below the hot region: the descending-run pattern
            # exists in the write stream (Fig. 7) but reads rarely visit it.
            misorder_len = max(BLOCK_SECTORS, hot_start // 2 // BLOCK_SECTORS * BLOCK_SECTORS)
            misorder_start = 0

        n_reads = max(0, round(spec.n_reads * scale))
        n_writes = max(1, round(spec.n_writes * scale))
        write_phase_weights = tuple(
            spec.write_phase_decay ** i for i in range(spec.phases)
        )
        writes_per_phase = _split_counts(n_writes, write_phase_weights)
        reads_per_phase = _split_counts(n_reads, tuple([1.0] * spec.phases))
        counts = []
        for phase in range(spec.phases):
            random_, hot, sequential, misordered = _split_counts(
                writes_per_phase[phase], spec.write_mix.as_tuple())
            scan, random_read, hot_read, replay = _split_counts(
                reads_per_phase[phase], spec.read_mix.as_tuple())
            # Hot overwrites first (they fragment), then mis-ordered runs,
            # sequential streams and random writes — unless the spec asks
            # for interleaving, which spaces hot fragments apart in the log.
            counts += [hot, misordered, sequential, random_,
                       replay, scan, hot_read, random_read]

        # wl_generate's Shape, field for field.
        shape = np.array([
            spec.phases, spec.interleave_writes, ws, spec.misorder_in_hot,
            _block_size(spec.mean_write_kib), _block_size(spec.mean_read_kib),
            spec.overwrite_cluster, kib_to_sectors(spec.cluster_span_kib), spec.hot_targets_max,
            hot_start, hot_len, misorder_start, misorder_len,
        ], dtype=np.int64)
        states = np.array([seeds.rng_for(label).getstate()[1] for label in _STREAMS],
                          dtype=np.uint32)
        counts = np.array(counts, dtype=np.int64)
        n = n_writes + n_reads
        columns = (np.empty(n), np.empty(n, dtype=bool),
                   np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
        done = LIBRARY.wl_generate(
            states.ctypes.data, shape.ctypes.data, counts.ctypes.data,
            spec.mean_write_kib, spec.mean_read_kib, spec.zipf_alpha,
            *(column.ctypes.data for column in columns),
        )
        if done < 0:
            raise MemoryError(f"no room for {spec.hot_targets_max} hot targets")
        _check_ranges(columns[2], columns[3])
        return Trace.from_columns(TraceColumns(*columns), name=spec.name)


def generate_workload(
    spec: WorkloadSpec, seed: int = 42, scale: float = 1.0
) -> Trace:
    """Module-level convenience: ``WorkloadGenerator(spec).generate(...)``."""
    return WorkloadGenerator(spec).generate(seed=seed, scale=scale)
