"""Trace replay driver.

:class:`Simulator` feeds a trace through a translator, folds every outcome
into a :class:`~repro.core.outcomes.SimStats`, and fans outcomes out to any
registered recorders.  It is deliberately dumb — all behaviour lives in the
translator and the recorders — so a replay is fully described by
``(trace, translator construction, recorders)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.errors import RetriesExhaustedError, TransientIOError
from repro.core.outcomes import IOOutcome, SimStats
from repro.core.recorders import Recorder
from repro.core.translators import Translator
from repro.trace.trace import Trace
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient I/O errors.

    Drives the simulator's service path when a translator raises
    :class:`~repro.core.errors.TransientIOError`: the request is retried up
    to ``max_retries`` times, charging a *simulated* backoff delay of
    ``base_delay_s * multiplier**attempt`` per retry to
    ``SimStats.retry_backoff_s`` (no wall-clock sleeping — replays stay
    fast and deterministic).

    Attributes:
        max_retries: Retries after the first attempt (so a request is
            tried ``max_retries + 1`` times in total).
        base_delay_s: Simulated delay before the first retry.
        multiplier: Backoff growth factor per subsequent retry.
    """

    max_retries: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        check_non_negative("max_retries", self.max_retries)
        check_non_negative("base_delay_s", self.base_delay_s)
        check_positive("multiplier", self.multiplier)

    def delay_for(self, attempt: int) -> float:
        """Simulated backoff before retry number ``attempt`` (0-based)."""
        return self.base_delay_s * (self.multiplier ** attempt)


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
        progress_every: If set, invoke ``progress`` every N operations.
        progress: Callback ``(ops_done, ops_total)`` for long replays.
        retry_policy: If set, requests failing with
            :class:`~repro.core.errors.TransientIOError` are retried with
            exponential backoff; without one, transient errors propagate.
    """

    def __init__(
        self,
        recorders: Sequence[Recorder] = (),
        progress_every: Optional[int] = None,
        progress=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if progress_every is not None and progress_every <= 0:
            raise ValueError(f"progress_every must be > 0, got {progress_every}")
        self._recorders = list(recorders)
        self._progress_every = progress_every
        self._progress = progress
        self._retry_policy = retry_policy

    def add_recorder(self, recorder: Recorder) -> None:
        self._recorders.append(recorder)

    def run(self, trace: Trace, translator: Translator) -> RunResult:
        """Replay ``trace`` through ``translator`` and return the summary."""
        stats = SimStats()
        total = len(trace)
        for op_index, request in enumerate(trace):
            outcome = self._serve(translator, request, op_index, stats)
            stats.absorb(outcome)
            for recorder in self._recorders:
                recorder.observe(op_index, outcome)
            if (
                self._progress_every is not None
                and self._progress is not None
                and (op_index + 1) % self._progress_every == 0
            ):
                self._progress(op_index + 1, total)
        return RunResult(
            trace_name=trace.name,
            translator=translator.description,
            stats=stats,
        )

    def _serve(
        self,
        translator: Translator,
        request,
        op_index: int,
        stats: SimStats,
    ) -> IOOutcome:
        """Submit one request, applying the retry policy if configured.

        Raises :class:`RetriesExhaustedError` when the request keeps
        failing past the policy's budget.  Translators raise
        :class:`TransientIOError` before mutating state, so each retry is a
        clean resubmission and seek accounting is unaffected by retries.
        """
        if self._retry_policy is None:
            return translator.submit(request)
        retried = False
        for attempt in range(self._retry_policy.max_retries + 1):
            try:
                return translator.submit(request)
            except TransientIOError as exc:
                stats.transient_errors += 1
                if not retried:
                    retried = True
                    stats.retried_ops += 1
                if attempt >= self._retry_policy.max_retries:
                    raise RetriesExhaustedError(op_index, attempt + 1, exc) from exc
                stats.retry_backoff_s += self._retry_policy.delay_for(attempt)
        raise AssertionError("unreachable")  # pragma: no cover


def replay(
    trace: Trace,
    translator: Translator,
    recorders: Iterable[Recorder] = (),
    retry_policy: Optional[RetryPolicy] = None,
) -> RunResult:
    """One-shot convenience wrapper: replay and return the result."""
    return Simulator(recorders, retry_policy=retry_policy).run(trace, translator)
