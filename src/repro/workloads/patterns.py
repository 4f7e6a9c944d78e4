"""Stateful access-pattern primitives used by the workload generator.

Each emitter produces ``(lba, length)`` pairs in sectors.  Emitters are
deliberately tiny state machines so a workload's behaviour can be read off
its spec: the generator composes them according to the
:class:`~repro.workloads.spec.WriteMix` / :class:`ReadMix` weights.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import accumulate
from typing import Deque, List, Optional, Tuple

from repro.util.rngtools import zipf_weights
from repro.util.units import BLOCK_SECTORS, kib_to_sectors

Span = Tuple[int, int]  # (lba, length)

#: Writes per reversed chunk of a mis-ordered run.
MISORDER_GROUP = 4
#: Recent writes a replay read covers, and recent writes the log keeps.
REPLAY_WINDOW, RECENT_MAX = 32, 4096


def sample_size(
    rng: random.Random,
    mean_kib: float,
    cap_kib: float = 1024.0,
    bulk_p: float = 0.0,
) -> int:
    """Sample a request size: exponential around the mean, 4 KiB-aligned,
    clamped to [4 KiB, cap_kib] like typical block-layer request caps.

    With probability ``bulk_p`` the request is instead a *bulk* transfer
    uniform in [8x mean, cap_kib].  Reads use a small ``bulk_p`` (see the
    generator): occasional large reads produce the heavy per-read fragment
    tail of Fig. 5, where ~20 % of the fragmented reads hold over half of
    all fragments.
    """
    if bulk_p and rng.random() < bulk_p:
        kib = rng.uniform(min(8.0 * mean_kib, cap_kib), cap_kib)
    else:
        kib = rng.expovariate(1.0 / mean_kib)
    kib = min(max(kib, 4.0), cap_kib)
    sectors = kib_to_sectors(kib)
    return max(BLOCK_SECTORS, (sectors // BLOCK_SECTORS) * BLOCK_SECTORS)


def _align(lba: int) -> int:
    return (lba // BLOCK_SECTORS) * BLOCK_SECTORS


class RandomAccessPattern:
    """Uniform random accesses over a region."""

    def __init__(
        self,
        rng: random.Random,
        start: int,
        length: int,
        mean_kib: float,
        cap_kib: float = 1024.0,
        bulk_p: float = 0.0,
    ) -> None:
        if length <= 0:
            raise ValueError(f"region length must be > 0, got {length}")
        self._rng = rng
        self._start = start
        self._length = length
        self._mean_kib = mean_kib
        self._cap_kib = cap_kib
        self._bulk_p = bulk_p

    def emit(self) -> Span:
        size = sample_size(self._rng, self._mean_kib, self._cap_kib, self._bulk_p)
        size = min(size, self._length)
        lba = self._start + _align(self._rng.randrange(0, max(1, self._length - size)))
        return lba, size


class SequentialPattern:
    """Ascending sequential accesses of the mean size, 4 KiB-aligned,
    sweeping a region and wrapping at the end."""

    def __init__(self, start: int, length: int, mean_kib: float) -> None:
        if length <= 0:
            raise ValueError(f"region length must be > 0, got {length}")
        self._start = start
        self._length = length
        self._size = max(BLOCK_SECTORS, (kib_to_sectors(mean_kib) // BLOCK_SECTORS) * BLOCK_SECTORS)
        self._cursor = start
        self.wraps = 0

    def emit(self) -> Span:
        size = self._size
        end = self._start + self._length
        if self._cursor + size > end:
            self._cursor = self._start
            self.wraps += 1
        span = (self._cursor, size)
        self._cursor += size
        return span


class MisorderedPattern:
    """Sequential runs emitted in locally reversed chunks (Fig. 7 pattern).

    An underlying ascending sweep is buffered :data:`MISORDER_GROUP`
    requests at a time and released in reverse, so each chunk's writes are
    mis-ordered: every write but the chunk's last sequentially follows a
    write issued just after it.
    """

    def __init__(self, start: int, length: int, mean_kib: float) -> None:
        self._sweep = SequentialPattern(start, length, mean_kib)
        self._pending: List[Span] = []

    def emit(self) -> Span:
        if not self._pending:
            chunk = [self._sweep.emit() for _ in range(MISORDER_GROUP)]
            chunk.reverse()
            self._pending = chunk
        return self._pending.pop(0)


class ClusteredOverwritePattern:
    """Small overwrites inside the hot region, issued in spatial clusters.

    Each cluster picks a random anchor in the hot region and issues
    ``cluster`` overwrites at random 4 KiB-aligned offsets within
    ``span_sectors`` of it.  With ``cluster >= 2`` the overwrites of one
    cluster land adjacently in the log, so a later scan's fragments sit
    within a prefetch window of each other; with ``cluster == 1`` every
    overwrite is spatially independent and prefetching gains little.
    """

    def __init__(
        self,
        rng: random.Random,
        start: int,
        length: int,
        mean_kib: float,
        cluster: int = 1,
        span_sectors: int = 1024,
    ) -> None:
        if cluster < 1:
            raise ValueError(f"cluster must be >= 1, got {cluster}")
        if span_sectors <= 0:
            raise ValueError(f"span_sectors must be > 0, got {span_sectors}")
        self._rng = rng
        self._start = start
        self._length = length
        self._mean_kib = mean_kib
        self._cluster = cluster
        self._span = span_sectors
        self._remaining_in_cluster = 0
        self._anchor = start

    def emit(self) -> Span:
        if self._remaining_in_cluster == 0:
            self._remaining_in_cluster = self._cluster
            self._anchor = self._start + _align(
                self._rng.randrange(0, max(1, self._length - self._span))
            )
        self._remaining_in_cluster -= 1
        size = sample_size(self._rng, self._mean_kib)
        size = min(size, self._span)
        offset = _align(self._rng.randrange(0, max(1, self._span - size)))
        return self._anchor + offset, size


class WrittenExtentLog:
    """Shared record of what has been written, feeding re-read patterns.

    Keeps a bounded FIFO of recent writes (for replay reads) and a bounded
    stable population of hot-region extents (for Zipf re-reads — stable so
    fragment popularity ranks stay fixed across the run, as in Fig. 10).
    """

    def __init__(self, hot_targets_max: int = 2048) -> None:
        if hot_targets_max < 1:
            raise ValueError("log bounds must be >= 1")
        self.recent: Deque[Span] = deque(maxlen=RECENT_MAX)
        self.hot_targets: List[Span] = []
        self._hot_targets_max = hot_targets_max

    def note_write(self, lba: int, length: int, in_hot: bool) -> None:
        self.recent.append((lba, length))
        if in_hot and len(self.hot_targets) < self._hot_targets_max:
            self.hot_targets.append((lba, length))


class ZipfRereadPattern:
    """Zipf-skewed re-reads of previously overwritten hot extents."""

    def __init__(self, rng: random.Random, log: WrittenExtentLog, alpha: float) -> None:
        self._rng = rng
        self._log = log
        self._alpha = alpha
        self._cum_weights: List[float] = []

    def emit(self) -> Optional[Span]:
        """Return a re-read target, or None if nothing hot exists yet."""
        targets = self._log.hot_targets
        if not targets:
            return None
        if len(self._cum_weights) != len(targets):
            # choices(weights=...) would re-accumulate these on every call.
            weights = zipf_weights(len(targets), self._alpha)
            self._cum_weights = list(accumulate(weights))
        return self._rng.choices(targets, cum_weights=self._cum_weights, k=1)[0]


class ReplayReadPattern:
    """Read back the last :data:`REPLAY_WINDOW` writes in the order they
    were written.

    This is the paper's log-*friendly* case (§III's "small file creation
    and access"): read order mimics temporal write order, so the log serves
    the whole burst with a single seek.
    """

    def __init__(self, log: WrittenExtentLog) -> None:
        self._log = log
        self._pending: List[Span] = []

    def emit(self) -> Optional[Span]:
        if not self._pending:
            recent = list(self._log.recent)[-REPLAY_WINDOW:]
            if not recent:
                return None
            self._pending = recent
        return self._pending.pop(0)
