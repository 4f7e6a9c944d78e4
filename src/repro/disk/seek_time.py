"""Seek cost as a function of seek distance (§III of the paper).

The paper's evaluation counts seeks; its §III discussion grounds why they
matter:

* Very short forward seeks (100s of KB) cost only the rotational time of
  the skipped sectors (the head stays on or near the track).
* Short *backward* seeks are the expensive "missed rotation" case — reading
  physical N after N+1 costs nearly a full revolution (the phenomenon
  look-behind prefetching targets, §IV-B).
* Long seeks cost head movement (a few ms up to ~25 ms, growing with
  distance) plus about half a revolution of rotational delay.

:class:`SeekTimeModel` implements this piecewise model so seek logs can be
converted into estimated service-time overheads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.disk.geometry import DiskGeometry


@dataclass(frozen=True)
class SeekTimeModel:
    """Piecewise seek-time estimator.

    Attributes:
        geometry: Drive geometry supplying rotation and transfer rates.
        min_seek_ms: Head-movement time of a single-track seek.
        max_seek_ms: Head-movement time of a full-stroke seek.
        short_seek_tracks: Seeks spanning at most this many tracks are
            treated as "short" (rotational-only cost).
    """

    geometry: DiskGeometry = field(default_factory=DiskGeometry)
    min_seek_ms: float = 1.0
    max_seek_ms: float = 25.0
    short_seek_tracks: int = 1

    def __post_init__(self) -> None:
        if self.min_seek_ms <= 0:
            raise ValueError(f"min_seek_ms must be > 0, got {self.min_seek_ms}")
        if self.max_seek_ms < self.min_seek_ms:
            raise ValueError("max_seek_ms must be >= min_seek_ms")
        if self.short_seek_tracks < 0:
            raise ValueError("short_seek_tracks must be >= 0")

    def seek_ms(self, distance_sectors: int) -> float:
        """Estimated time to reposition by ``distance_sectors`` (signed).

        Zero distance costs nothing; short forward skips cost the transfer
        time of the skipped sectors; short backward hops cost a missed
        rotation; long seeks cost square-root head travel plus half a
        rotation of expected latency.
        """
        if distance_sectors == 0:
            return 0.0
        tracks = self.geometry.tracks_spanned(distance_sectors)
        if tracks <= self.short_seek_tracks:
            if distance_sectors > 0:
                return self.geometry.transfer_ms(distance_sectors)
            # Missed rotation: wait almost a full revolution to "back up".
            return self.geometry.revolution_ms - self.geometry.transfer_ms(
                min(-distance_sectors, self.geometry.track_sectors)
            )
        # Long seek: head travel grows ~sqrt(distance) per classic seek
        # curves, plus an expected half rotation of latency.
        frac = min(1.0, tracks / self.geometry.tracks)
        head_ms = self.min_seek_ms + (self.max_seek_ms - self.min_seek_ms) * math.sqrt(frac)
        return head_ms + self.geometry.revolution_ms / 2.0

    def total_ms(self, distances: Iterable[int]) -> float:
        """Aggregate seek time over an iterable of signed distances."""
        return sum(self.seek_ms(d) for d in distances)
