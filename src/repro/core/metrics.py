"""Seek amplification factor (SAF) — the paper's evaluation metric.

    "Performance is expressed as seek amplification: the ratio of seeks
    (read, write, or total) for the log-structured system to seeks incurred
    on a conventional drive by the workload trace."  (§II)

SAF < 1 means log-structuring *reduced* seeks (typical for write-intensive
workloads); SAF > 1 means read fragmentation cost more than sequential
writing saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.outcomes import SimStats


@dataclass(frozen=True)
class SeekAmplification:
    """Read / write / total seek amplification of one translation vs. NoLS.

    A component is ``inf`` when the baseline had zero seeks of that kind
    but the translated replay had some, and 1.0 when both had zero.
    """

    read: float
    write: float
    total: float


def _ratio(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return math.inf if numerator > 0 else 1.0
    return numerator / denominator


def seek_amplification(translated: SimStats, baseline: SimStats) -> SeekAmplification:
    """Compute SAF of ``translated`` relative to the ``baseline`` replay.

    Defrag rewrite seeks are charged to the translated system's write
    seeks: they are real head movements the technique added.
    """
    return SeekAmplification(
        read=_ratio(translated.read_seeks, baseline.read_seeks),
        write=_ratio(translated.total_write_seeks, baseline.write_seeks),
        total=_ratio(translated.total_seeks, baseline.total_seeks),
    )


def time_amplification(translated_distances, baseline_distances) -> float:
    """Seek-*time* amplification factor (TAF).

    The paper evaluates by counting seeks but motivates them by cost
    (§III): a missed rotation costs a full revolution while a short
    forward skip costs almost nothing, so two replays with equal seek
    counts can differ widely in time.  TAF weights each seek in a replay's
    seek log by the §III piecewise cost model and takes the ratio.

    Args:
        translated_distances: Signed seek distances of the translated
            replay (e.g. ``SeekLogRecorder.distances``).
        baseline_distances: Same for the conventional-drive replay.

    Returns ``inf`` when the baseline spent no seek time but the
    translated replay did, and 1.0 when neither spent any.
    """
    from repro.disk.seek_time import SeekTimeModel

    model = SeekTimeModel()
    translated_ms = model.total_ms(translated_distances)
    baseline_ms = model.total_ms(baseline_distances)
    if baseline_ms == 0.0:
        return math.inf if translated_ms > 0.0 else 1.0
    return translated_ms / baseline_ms
