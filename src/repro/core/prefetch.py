"""Translation-aware look-ahead-behind prefetching (paper §IV-B, Algorithm 2).

Mis-ordered writes — writes whose LBAs sequentially follow a write issued
shortly *after* them — land physically close together but in the wrong
order in the log.  Reading them back in LBA order then costs missed
rotations (physical N after N+1).  Because the drive is already positioned
on the right track, reading a window *behind* and *ahead* of each requested
fragment is nearly free and captures the out-of-order neighbours.

Per Algorithm 2, prefetching activates only on fragmented reads (the
``FragmentedRead`` guard): unfragmented reads are served plainly, like a
conventional drive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.util.units import kib_to_sectors


@dataclass(frozen=True)
class PrefetchConfig:
    """Window sizes for look-ahead-behind prefetching.

    Attributes:
        behind_kib: Look-behind window (read before the fragment; paper's
            PreFetch step).  Defaults to the 256 KiB the paper uses as its
            mis-ordered-write horizon.
        ahead_kib: Look-ahead window (read after the fragment; paper's
            PostFetch step).
        buffer_mib: Drive buffer capacity holding recent windows (shipped
            drives carry 128–256 MB of DRAM, most of it media cache; a few
            MiB of it buffers prefetch windows).
    """

    behind_kib: float = 256.0
    ahead_kib: float = 256.0
    buffer_mib: float = 4.0

    def __post_init__(self) -> None:
        if self.behind_kib < 0 or self.ahead_kib < 0:
            raise ValueError("prefetch windows must be >= 0")
        if self.behind_kib == 0 and self.ahead_kib == 0:
            raise ValueError("at least one of behind_kib/ahead_kib must be > 0")
        if self.buffer_mib <= 0:
            raise ValueError(f"buffer_mib must be > 0, got {self.buffer_mib}")


class LookAheadBehindPrefetcher:
    """Algorithm 2's drive buffer: a bounded FIFO of ``[start, end)``
    physical windows, with its window-read count.

    The translator asks :meth:`covers` before each fragment access (a hit
    is served from the buffer without moving the head) and calls
    :meth:`note_fragment_read` after each actual disk access so the
    surrounding window becomes available to later fragments.  Drive
    buffers are small ring buffers refilled continuously, so FIFO
    replacement (not LRU) models them faithfully: the oldest window is
    overwritten first.  The fast paths run the compiled fragment-policy
    kernel, for which these calls are the oracle.
    """

    def __init__(self, config: Optional[PrefetchConfig] = None) -> None:
        # A `config=PrefetchConfig()` default would be evaluated once at
        # def time and shared by every instance; build one per instance.
        config = PrefetchConfig() if config is None else config
        self.behind_sectors = kib_to_sectors(config.behind_kib)
        self.ahead_sectors = kib_to_sectors(config.ahead_kib)
        #: Sectors the buffered windows may hold in total.
        self.capacity_sectors = kib_to_sectors(config.buffer_mib * 1024)
        self._windows: Deque[Tuple[int, int]] = deque()  # oldest first
        self._used = 0
        self.window_reads = 0

    def covers(self, pba: int, length: int) -> bool:
        """True if some buffered window contains all of ``[pba, pba+length)``.

        Containment within a single window is required: drive buffer
        segments are independent ring slots, not a coalesced cache.
        """
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        end = pba + length
        return any(start <= pba and end <= w_end for start, w_end in self._windows)

    def note_fragment_read(self, pba: int, length: int) -> None:
        """Record that the drive read a fragment at ``pba`` from the media.

        Buffers the look-behind + fragment + look-ahead window around it
        (PreFetch(fetchRegion); DoRead(pba); PostFetch(fetchRegion)),
        clipped at pba 0 and, when larger than the whole buffer, truncated
        to its tail (nearest the head's final position); then drops the
        oldest windows until the buffer fits again.
        """
        start, end = max(0, pba - self.behind_sectors), pba + length + self.ahead_sectors
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        start = max(start, end - self.capacity_sectors)
        self._windows.append((start, end))
        self._used += end - start
        while self._used > self.capacity_sectors:
            old_start, old_end = self._windows.popleft()
            self._used -= old_end - old_start
        self.window_reads += 1

    def state_dict(self) -> dict:
        """JSON-serializable mutable state (checkpoint snapshot): the
        buffered ``[start, end]`` windows, oldest first, and the count.

        Configuration is *not* included — restore builds a prefetcher from
        the same :class:`PrefetchConfig` and loads this state into it.
        """
        return {
            "windows": [[int(start), int(end)] for start, end in self._windows],
            "window_reads": self.window_reads,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (replaces current state).

        The windows must be non-empty and within capacity in total, as
        :meth:`note_fragment_read` keeps them, so a snapshot from a
        same-sized buffer always round-trips exactly.
        """
        restored: Deque[Tuple[int, int]] = deque()
        used = 0
        for start, end in state["windows"]:
            start, end = int(start), int(end)
            if end <= start or start < 0:
                raise ValueError(f"invalid window [{start}, {end})")
            restored.append((start, end))
            used += end - start
        if used > self.capacity_sectors:
            raise ValueError(
                f"restored windows hold {used} sectors, over capacity {self.capacity_sectors}"
            )
        self._windows, self._used = restored, used
        self.window_reads = int(state["window_reads"])
