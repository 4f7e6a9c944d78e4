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
converted into estimated service-time overheads.  Its parameters
approximate a 7200 RPM, 8 TB class SMR drive.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.util.units import SECTORS_PER_MIB, gib_to_sectors

#: Sectors per track (modern outer tracks hold ~2 MiB).
TRACK_SECTORS = 2 * SECTORS_PER_MIB
#: Tracks of the 7200 RPM, 8 TB class SMR drive the model approximates.
TRACKS = gib_to_sectors(8 * 1024) // TRACK_SECTORS
#: One platter revolution at 7200 RPM, in milliseconds.
REVOLUTION_MS = 60_000.0 / 7200
#: Sustained media transfer rate.
TRANSFER_MIB_S = 180.0
#: Head-movement time of a single-track and of a full-stroke seek.
MIN_SEEK_MS, MAX_SEEK_MS = 1.0, 25.0
#: Seeks spanning at most this many tracks cost rotation only.
SHORT_SEEK_TRACKS = 1


def transfer_ms(sectors: int) -> float:
    """Media transfer time for ``sectors`` at the sustained rate."""
    return sectors * 512 / (TRANSFER_MIB_S * 1024 * 1024) * 1000.0


class SeekTimeModel:
    """Piecewise seek-time estimator over the module's drive constants."""

    def seek_ms(self, distance_sectors: int) -> float:
        """Estimated time to reposition by ``distance_sectors`` (signed).

        Zero distance costs nothing; short forward skips cost the transfer
        time of the skipped sectors; short backward hops cost a missed
        rotation; long seeks cost square-root head travel plus half a
        rotation of expected latency.
        """
        if distance_sectors == 0:
            return 0.0
        tracks = abs(distance_sectors) // TRACK_SECTORS
        if tracks <= SHORT_SEEK_TRACKS:
            if distance_sectors > 0:
                return transfer_ms(distance_sectors)
            # Missed rotation: wait almost a full revolution to "back up".
            return REVOLUTION_MS - transfer_ms(min(-distance_sectors, TRACK_SECTORS))
        # Long seek: head travel grows ~sqrt(distance) per classic seek
        # curves, plus an expected half rotation of latency.
        frac = min(1.0, tracks / TRACKS)
        head_ms = MIN_SEEK_MS + (MAX_SEEK_MS - MIN_SEEK_MS) * math.sqrt(frac)
        return head_ms + REVOLUTION_MS / 2.0

    def total_ms(self, distances: Iterable[int]) -> float:
        """Aggregate seek time over an iterable of signed distances."""
        return sum(self.seek_ms(d) for d in distances)
