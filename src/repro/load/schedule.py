"""Arrival schedules: when each batch of a load run should be sent.

A schedule is just an array of send-time *offsets* (seconds from run
start, one per batch, non-decreasing).  A driver sleeps until each
offset before dispatching its batch; an all-zeros schedule means "as
fast as the daemon will take it", which is what throughput benchmarks
want, while paced schedules exercise the coalescer's deadline budget
and the queue-depth shedding path the way production traffic would:

* ``steady``  — constant rate.
* ``diurnal`` — sinusoidal rate modulation around the target (a day/night
  cycle compressed into ``period_s``); the offsets are the integral of
  the instantaneous rate, computed iteratively.
* ``burst``   — on/off square wave: bursts at ``amplitude``× the target
  rate separated by idle gaps, mean rate preserved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

KINDS = ("steady", "diurnal", "burst")


def arrival_offsets(
    n_batches: int,
    batch_ops: int,
    target_ops_per_s: Optional[float] = None,
    kind: str = "steady",
    period_s: float = 10.0,
    amplitude: float = 0.8,
    duty: float = 0.25,
) -> np.ndarray:
    """Send-time offsets (seconds, float64) for ``n_batches`` batches.

    ``target_ops_per_s=None`` (or <=0) returns zeros — unthrottled.
    ``amplitude`` is the modulation depth for ``diurnal`` (0..1, peak rate
    is ``(1+amplitude)×`` target) and the burst multiplier ceiling for
    ``burst``; ``duty`` is the burst on-fraction of each period.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; valid: {KINDS}")
    if n_batches <= 0:
        return np.zeros(0, dtype=np.float64)
    if target_ops_per_s is None or target_ops_per_s <= 0:
        return np.zeros(n_batches, dtype=np.float64)

    base_gap = batch_ops / float(target_ops_per_s)
    if kind == "steady":
        return np.arange(n_batches, dtype=np.float64) * base_gap

    offsets = np.empty(n_batches, dtype=np.float64)
    t = 0.0
    if kind == "diurnal":
        amplitude = min(max(float(amplitude), 0.0), 0.95)
        for i in range(n_batches):
            offsets[i] = t
            # Instantaneous rate modulated by where *this* send falls in
            # the period; integrating step-by-step keeps gaps positive.
            phase = 2.0 * np.pi * (t / period_s)
            rate = target_ops_per_s * (1.0 + amplitude * np.sin(phase))
            t += batch_ops / rate
        return offsets

    # burst: within each period, the first `duty` fraction fires at the
    # burst rate; the rest of the period is silent.  Mean rate over a
    # full period equals the target.
    duty = min(max(float(duty), 0.05), 1.0)
    burst_rate = target_ops_per_s / duty
    burst_gap = batch_ops / burst_rate
    for i in range(n_batches):
        offsets[i] = t
        t += burst_gap
        phase = (t % period_s) / period_s
        if phase >= duty:  # burst window exhausted: jump to next period
            t = (np.floor(t / period_s) + 1.0) * period_s
    return offsets
