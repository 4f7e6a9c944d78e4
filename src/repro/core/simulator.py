"""Trace replay driver.

:class:`Simulator` feeds a trace through a translator, folds every outcome
into a :class:`~repro.core.outcomes.SimStats`, and fans outcomes out to any
registered recorders.  It is deliberately dumb — all behaviour lives in the
translator and the recorders — so a replay is fully described by
``(trace, translator construction, recorders)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.outcomes import SimStats
from repro.core.recorders import Recorder
from repro.core.translators import Translator
from repro.trace.trace import Trace


@dataclass(frozen=True)
class RunResult:
    """Summary of one trace replay.

    Attributes:
        trace_name: Name of the replayed trace.
        translator: The translator's description string (e.g. ``"LS+cache"``).
        stats: Aggregate counters.
    """

    trace_name: str
    translator: str
    stats: SimStats


class Simulator:
    """Replays traces through translators.

    Args:
        recorders: Observers receiving every ``(op_index, outcome)`` pair.
    """

    def __init__(self, recorders: Sequence[Recorder] = ()) -> None:
        self._recorders = list(recorders)

    def run(self, trace: Trace, translator: Translator) -> RunResult:
        """Replay ``trace`` through ``translator`` and return the summary."""
        stats = SimStats()
        for op_index, request in enumerate(trace):
            outcome = translator.submit(request)
            stats.absorb(outcome)
            for recorder in self._recorders:
                recorder.observe(op_index, outcome)
        return RunResult(
            trace_name=trace.name,
            translator=translator.description,
            stats=stats,
        )


def replay(
    trace: Trace,
    translator: Translator,
    recorders: Iterable[Recorder] = (),
) -> RunResult:
    """One-shot convenience wrapper: replay and return the result."""
    return Simulator(recorders).run(trace, translator)
