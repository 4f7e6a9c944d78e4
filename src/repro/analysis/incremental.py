"""Incrementally-updated analysis summaries for streaming replay.

The batch analyses in :mod:`repro.analysis.fast` take whole arrays — a
trace's columns, or a replay's full seek-distance log.  A streaming
session (:mod:`repro.service`) sees its op stream in batches, never holds
it whole, and must answer live queries (current SAF, fragment CDF, seek
budget) after any batch.  This module provides the bounded, resumable
summaries those queries read from:

* :class:`IncrementalNolsBaseline` — the §II NoLS seek counts over the
  stream so far, updated vectorized per batch with the head position
  carried across batches.  After any prefix it equals the read and write
  seeks of an :class:`~repro.core.translators.InPlaceTranslator` replay
  of that prefix exactly, which makes the live SAF (translated seeks /
  these counts) exact.
* :class:`IncrementalDistances` — a distance histogram plus a seek-time
  total, updated from :meth:`IncrementalBatchReplay.drain_distances
  <repro.core.batch.IncrementalBatchReplay.drain_distances>` output.
  Memory is bounded by the number of *distinct* distances, not the seek
  count, so a session can run indefinitely.
* :func:`fragment_cdf_from_hist` — the Fig. 5 fragment CDF from the
  engine's per-read fragment histogram, bit-identical to
  :func:`repro.analysis.fast.fragment_cdf_fast` over the equivalent
  per-read sequence.

Every summary serializes to a ``state_dict`` (plain scalars; histograms
as ``(n, 2)`` int64 arrays, see :mod:`repro.util.bulkstate`) and restores
bit-identically, so session checkpoints capture analysis state alongside
kernel state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch import classify_seeks
from repro.disk.seek_time import SeekTimeModel
from repro.util.bulkstate import int_rows
from repro.util.units import gib_to_sectors

_SEEK_TIME = SeekTimeModel()


def fragment_cdf_from_hist(hist: Dict[int, int]) -> List[Tuple[float, float]]:
    """Fig. 5 fragment-count CDF from a ``{fragment_count: reads}`` histogram.

    Bit-identical to :func:`repro.analysis.fast.fragment_cdf_fast` applied
    to any per-read sequence with this histogram: that path collapses
    duplicates through ``np.unique`` and divides cumulative counts by the
    total with Python ``int / int``, which is exactly what iterating the
    sorted histogram reproduces.  Counts of 1 (unfragmented reads) are
    excluded, per the figure.
    """
    filtered = sorted(
        (int(fragments), int(reads))
        for fragments, reads in hist.items()
        if fragments > 1
    )
    n = sum(reads for _, reads in filtered)
    points: List[Tuple[float, float]] = []
    cumulative = 0
    for fragments, reads in filtered:
        cumulative += reads
        points.append((float(fragments), cumulative / n))
    return points


class IncrementalNolsBaseline:
    """Streaming §II seek counts of the conventional in-place replay.

    Feed the same op batches the translated replay consumes; after any
    prefix, ``(read_seeks, write_seeks)`` equals the seeks of an
    :class:`~repro.core.translators.InPlaceTranslator` replay of that
    prefix.  This is the denominator of the live SAF — no translator,
    extent map, or per-op Python loop, just one
    :func:`~repro.core.batch.classify_seeks` pass per batch with the head
    position carried in between (so batch boundaries are invisible).
    """

    def __init__(self) -> None:
        self.read_seeks = 0
        self.write_seeks = 0
        self.ops = 0
        self._head: Optional[int] = None

    def feed_arrays(
        self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        # The in-place replay's access stream is the ops (kind 1: a write).
        _seek, _distances, kinds, self._head = classify_seeks(
            lba, length, (~is_read).view(np.int8), self._head
        )
        write_seeks = int(np.count_nonzero(kinds))
        self.read_seeks += len(kinds) - write_seeks
        self.write_seeks += write_seeks
        self.ops += len(lba)

    def counts(self) -> Tuple[int, int]:
        return self.read_seeks, self.write_seeks

    def state_dict(self) -> dict:
        return {
            "read_seeks": self.read_seeks,
            "write_seeks": self.write_seeks,
            "ops": self.ops,
            "head": self._head,
        }

    def load_state(self, state: dict) -> None:
        self.read_seeks = int(state["read_seeks"])
        self.write_seeks = int(state["write_seeks"])
        self.ops = int(state["ops"])
        head = state["head"]
        self._head = None if head is None else int(head)


def _counted(hist: np.ndarray, values: np.ndarray, counts=1) -> np.ndarray:
    """Sorted ``(n, 2)`` ``[value, count]`` rows with ``values`` (``counts``
    each) added, as a new array; ``hist`` itself when there are none."""
    if not len(values):
        return hist
    keys, inverse = np.unique(np.concatenate((hist[:, 0], values)), return_inverse=True)
    totals = np.zeros(len(keys), dtype=np.int64)
    np.add.at(totals, inverse, np.concatenate((hist[:, 1], np.broadcast_to(counts, len(values)))))
    return np.column_stack((keys, totals))


class IncrementalDistances:
    """Bounded streaming summary of a replay's seek-distance log.

    Keeps a histogram per seek direction as a sorted ``(n, 2)`` int64
    ``[distance, count]`` array, built from the arrays
    :meth:`~repro.core.batch.IncrementalBatchReplay.drain_distances`
    yields.  :meth:`feed` only queues them; the queue is folded in once it
    outgrows the histograms and before any read, so memory stays
    O(distinct distances + one interval).  A fold replaces the arrays
    rather than mutating them, so :meth:`state_dict` hands them out as
    they are.  Supports the live queries the batch analyses answer from
    the full log:

    * :meth:`total_seek_ms` — the session's seek budget, summed over the
      histogram in sorted-distance order (mathematically equal to
      ``SeekTimeModel().total_ms(log)``; float summation order differs
      from the in-log-order reference, but is deterministic and
      recovery-stable, which is what the service's byte-identical
      recovery check needs).
    * :meth:`fraction_within` — exact: integer counts, ``int / int``.
    """

    def __init__(self) -> None:
        self._read_hist = self._write_hist = np.empty((0, 2), dtype=np.int64)
        self._queued: List[Tuple[np.ndarray, np.ndarray]] = []
        self._queued_n = 0

    @property
    def seeks(self) -> int:
        return self.read_seeks + int(self._folded()[1][:, 1].sum())

    @property
    def read_seeks(self) -> int:
        return int(self._folded()[0][:, 1].sum())

    def feed(self, distances: np.ndarray, distance_is_read: np.ndarray) -> None:
        """Queue one drained ``(distances, distance_is_read)`` pair."""
        if len(distances):
            self._queued.append((distances, distance_is_read))
            self._queued_n += len(distances)
            if self._queued_n > len(self._read_hist) + len(self._write_hist):
                self._folded()

    def _folded(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(read_hist, write_hist)`` with every queued distance counted."""
        if self._queued:
            distances, is_read = (np.concatenate(column) for column in zip(*self._queued))
            self._read_hist = _counted(self._read_hist, distances[is_read])
            self._write_hist = _counted(self._write_hist, distances[~is_read])
            self._queued, self._queued_n = [], 0
        return self._read_hist, self._write_hist

    def _hist(self, read_only: bool) -> np.ndarray:
        read, write = self._folded()
        return read if read_only else _counted(read, write[:, 0], write[:, 1])

    def total_seek_ms(self, read_only: bool = False) -> float:
        """Aggregate seek time (the session's running seek budget)."""
        return sum(
            _SEEK_TIME.seek_ms(distance) * count
            for distance, count in self._hist(read_only).tolist()
        )

    def fraction_within(self, window_gib: float) -> float:
        """Fraction of read seeks within ±``window_gib`` (Fig. 4 headline).

        Agrees exactly with :func:`repro.analysis.fast.fraction_within_fast`
        over the corresponding distance log.
        """
        if window_gib <= 0:
            raise ValueError(f"window_gib must be > 0, got {window_gib}")
        hist = self._folded()[0]
        n = int(hist[:, 1].sum())
        if n == 0:
            return 0.0
        limit = gib_to_sectors(window_gib)
        inside = (hist[:, 0] >= -limit) & (hist[:, 0] <= limit)
        return int(hist[inside, 1].sum()) / n

    def state_dict(self) -> dict:
        """Both histograms as ``(n, 2)`` int64 ``[distance, count]`` arrays
        sorted by distance (``(0, 2)`` when empty) — the arrays held, not
        copies: a later fold replaces them."""
        read, write = self._folded()
        return {"read_hist": read, "write_hist": write}

    def load_state(self, state: dict) -> None:
        self._read_hist = int_rows(state["read_hist"], 2)
        self._write_hist = int_rows(state["write_hist"], 2)
        self._queued, self._queued_n = [], 0
