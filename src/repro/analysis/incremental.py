"""Incrementally-updated analysis summaries for streaming replay.

The batch analyses in :mod:`repro.analysis.fast` take whole arrays — a
trace's columns, or a replay's full seek-distance log.  A streaming
session (:mod:`repro.service`) sees its op stream in batches, never holds
it whole, and must answer live queries (current SAF, fragment CDF, seek
budget) after any batch.  This module provides the bounded, resumable
summaries those queries read from:

* :class:`IncrementalNolsBaseline` — the §II NoLS seek counts over the
  stream so far, updated vectorized per batch with the head position
  carried across batches.  After any prefix it equals
  :func:`repro.analysis.fast.nols_seek_counts` over that prefix exactly,
  which makes the live SAF (translated seeks / these counts) exact.
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

from repro.disk.seek_time import SeekTimeModel
from repro.util.bulkstate import hist_to_pairs, pairs_to_hist
from repro.util.units import gib_to_sectors


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
    prefix, ``(read_seeks, write_seeks)`` equals
    :func:`repro.analysis.fast.nols_seek_counts` over that prefix.  This
    is the denominator of the live SAF — no translator, extent map, or
    per-op Python loop, just one vectorized pass per batch with the head
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
        n = len(lba)
        if n == 0:
            return
        prev_end = np.empty(n, dtype=np.int64)
        # First op of the stream never seeks (§II: no predecessor).
        prev_end[0] = lba[0] if self._head is None else self._head
        np.add(lba[:-1], length[:-1], out=prev_end[1:])
        seeks = lba != prev_end
        read_seeks = int(np.count_nonzero(seeks & is_read))
        self.read_seeks += read_seeks
        self.write_seeks += int(np.count_nonzero(seeks)) - read_seeks
        self.ops += n
        self._head = int(lba[-1] + length[-1])

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


class IncrementalDistances:
    """Bounded streaming summary of a replay's seek-distance log.

    Accumulates a ``{signed_distance: count}`` histogram from the arrays
    :meth:`~repro.core.batch.IncrementalBatchReplay.drain_distances`
    yields, split by seek direction.  Supports the live queries the batch
    analyses answer from the full log:

    * :meth:`total_seek_ms` — the session's seek budget, summed over the
      histogram in sorted-distance order (mathematically equal to
      ``SeekTimeModel().total_ms(log)``; float summation order differs
      from the in-log-order reference, but is deterministic and
      recovery-stable, which is what the service's byte-identical
      recovery check needs).
    * :meth:`fraction_within` — exact: integer counts, ``int / int``.
    * :meth:`cdf` — exact per :func:`fragment_cdf_from_hist`'s argument
      (``np.unique`` + cumulative ``int / int`` collapses to histogram
      iteration).
    """

    def __init__(self, model: Optional[SeekTimeModel] = None) -> None:
        self._model = SeekTimeModel() if model is None else model
        self._read_hist: Dict[int, int] = {}
        self._write_hist: Dict[int, int] = {}

    @property
    def seeks(self) -> int:
        return sum(self._read_hist.values()) + sum(self._write_hist.values())

    @property
    def read_seeks(self) -> int:
        return sum(self._read_hist.values())

    def feed(self, distances: np.ndarray, distance_is_read: np.ndarray) -> None:
        """Fold one drained ``(distances, distance_is_read)`` pair in."""
        if len(distances) == 0:
            return
        for hist, mask in (
            (self._read_hist, distance_is_read),
            (self._write_hist, ~distance_is_read),
        ):
            values, counts = np.unique(distances[mask], return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                hist[value] = hist.get(value, 0) + count

    def _merged(self) -> Dict[int, int]:
        merged = dict(self._read_hist)
        for value, count in self._write_hist.items():
            merged[value] = merged.get(value, 0) + count
        return merged

    def total_seek_ms(self, read_only: bool = False) -> float:
        """Aggregate seek time (the session's running seek budget)."""
        hist = self._read_hist if read_only else self._merged()
        return sum(
            self._model.seek_ms(distance) * count
            for distance, count in sorted(hist.items())
        )

    def fraction_within(self, window_gib: float, read_only: bool = True) -> float:
        """Fraction of seeks within ±``window_gib`` (Fig. 4 headline).

        Agrees exactly with :func:`repro.analysis.fast.fraction_within_fast`
        over the corresponding distance log.
        """
        if window_gib <= 0:
            raise ValueError(f"window_gib must be > 0, got {window_gib}")
        hist = self._read_hist if read_only else self._merged()
        n = sum(hist.values())
        if n == 0:
            return 0.0
        limit = gib_to_sectors(window_gib)
        within = sum(
            count for distance, count in hist.items() if -limit <= distance <= limit
        )
        return within / n

    def cdf(
        self, window_gib: float = 2.0, read_only: bool = True
    ) -> List[Tuple[float, float]]:
        """Clipped distance CDF (Fig. 4); agrees exactly with
        :func:`repro.analysis.fast.distance_cdf_fast` over the
        corresponding distance log."""
        if window_gib <= 0:
            raise ValueError(f"window_gib must be > 0, got {window_gib}")
        hist = self._read_hist if read_only else self._merged()
        limit = gib_to_sectors(window_gib)
        clipped = sorted(
            (distance, count)
            for distance, count in hist.items()
            if -limit <= distance <= limit
        )
        n = sum(count for _, count in clipped)
        points: List[Tuple[float, float]] = []
        cumulative = 0
        for distance, count in clipped:
            cumulative += count
            points.append((float(distance), cumulative / n))
        return points

    def state_dict(self) -> dict:
        """Both histograms as ``(n, 2)`` int64 ``[distance, count]`` arrays
        sorted by distance (``(0, 2)`` when empty)."""
        return {
            "read_hist": hist_to_pairs(self._read_hist),
            "write_hist": hist_to_pairs(self._write_hist),
        }

    def load_state(self, state: dict) -> None:
        self._read_hist = pairs_to_hist(state["read_hist"])
        self._write_hist = pairs_to_hist(state["write_hist"])
