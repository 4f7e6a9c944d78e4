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

from dataclasses import dataclass
from typing import Optional

from repro.cache.prefetch_buffer import PrefetchBuffer
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
    """Prefetch-window bookkeeping for Algorithm 2.

    The translator asks :meth:`covers` before each fragment access (a hit
    is served from the buffer without moving the head) and calls
    :meth:`note_fragment_read` after each actual disk access so the
    surrounding window becomes available to later fragments.
    """

    def __init__(self, config: Optional[PrefetchConfig] = None) -> None:
        # A `config=PrefetchConfig()` default would be evaluated once at
        # def time and shared by every instance; build one per instance.
        config = PrefetchConfig() if config is None else config
        self._config = config
        self._behind = kib_to_sectors(config.behind_kib)
        self._ahead = kib_to_sectors(config.ahead_kib)
        self._buffer = PrefetchBuffer(
            capacity_sectors=kib_to_sectors(config.buffer_mib * 1024)
        )
        self.window_reads = 0

    @property
    def behind_sectors(self) -> int:
        return self._behind

    @property
    def ahead_sectors(self) -> int:
        return self._ahead

    def covers(self, pba: int, length: int) -> bool:
        """True if ``[pba, pba+length)`` sits inside a buffered window."""
        return self._buffer.covers(pba, length)

    def note_fragment_read(self, pba: int, length: int) -> None:
        """Record that the drive read a fragment at ``pba`` from the media.

        Buffers the look-behind + fragment + look-ahead window around it
        (PreFetch(fetchRegion); DoRead(pba); PostFetch(fetchRegion)).
        """
        self._buffer.add_window(pba - self._behind, pba + length + self._ahead)
        self.window_reads += 1

    def state_dict(self) -> dict:
        """JSON-serializable mutable state (checkpoint snapshot).

        Configuration is *not* included — restore builds a prefetcher from
        the same :class:`PrefetchConfig` and loads this state into it.
        """
        return {
            "windows": [list(w) for w in self._buffer.windows()],
            "window_reads": self.window_reads,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (replaces current state)."""
        self._buffer.restore_windows(state["windows"])
        self.window_reads = int(state["window_reads"])
