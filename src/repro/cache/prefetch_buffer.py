"""FIFO buffer of physically contiguous prefetch windows.

Look-ahead-behind prefetching (Algorithm 2) pulls a physical window around
each fragment it reads into the drive buffer.  Drive buffers are small ring
buffers refilled continuously, so FIFO replacement (not LRU) models them
faithfully: the oldest window is overwritten first.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class PrefetchBuffer:
    """Bounded FIFO of ``[start, end)`` physical windows.

    Args:
        capacity_sectors: Total sectors the buffer may hold; the oldest
            window is dropped when an insertion exceeds it.
    """

    def __init__(self, capacity_sectors: int) -> None:
        if capacity_sectors <= 0:
            raise ValueError(f"capacity_sectors must be > 0, got {capacity_sectors}")
        self._capacity = capacity_sectors
        self._windows: Deque[Tuple[int, int]] = deque()
        self._used = 0

    @property
    def capacity_sectors(self) -> int:
        return self._capacity

    @property
    def used_sectors(self) -> int:
        return self._used

    def add_window(self, start: int, end: int) -> None:
        """Buffer the window ``[max(start,0), end)``, evicting FIFO-style.

        Windows larger than the whole buffer are truncated to its capacity
        (keeping the tail end, nearest the head's final position).
        """
        start = max(0, start)
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        if end - start > self._capacity:
            start = end - self._capacity
        self._windows.append((start, end))
        self._used += end - start
        while self._used > self._capacity:
            old_start, old_end = self._windows.popleft()
            self._used -= old_end - old_start

    def covers(self, pba: int, length: int) -> bool:
        """True if some buffered window contains all of ``[pba, pba+length)``.

        Containment within a single window is required: drive buffer
        segments are independent ring slots, not a coalesced cache.
        """
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        end = pba + length
        return any(start <= pba and end <= w_end for start, w_end in self._windows)

    def windows(self) -> list:
        """The buffered ``(start, end)`` windows, oldest first.

        This is the buffer's complete mutable state; feed it back through
        :meth:`restore_windows` to reconstruct an identical buffer.
        """
        return [(int(start), int(end)) for start, end in self._windows]

    def restore_windows(self, windows) -> None:
        """Replace the buffered windows with ``windows`` (oldest first).

        The windows must respect the invariants :meth:`add_window`
        maintains (non-empty, within capacity in total), so a snapshot
        from a same-sized buffer always round-trips exactly.
        """
        restored: Deque[Tuple[int, int]] = deque()
        used = 0
        for start, end in windows:
            start, end = int(start), int(end)
            if end <= start or start < 0:
                raise ValueError(f"invalid window [{start}, {end})")
            restored.append((start, end))
            used += end - start
        if used > self._capacity:
            raise ValueError(
                f"restored windows hold {used} sectors, over capacity {self._capacity}"
            )
        self._windows = restored
        self._used = used

