"""``replay_with`` must fall back to the reference simulator — silently
and exactly — whenever the replay needs something the kernels cannot do:
recorders observing per-request events.  Parametrized over every paper
config so a future kernel for a new technique can't regress the fallback.
"""

from __future__ import annotations

import pytest

from repro.core.config import PAPER_CONFIGS, build_translator
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import Simulator
from repro.experiments import common
from repro.experiments.common import replay_with
from repro.workloads import synthesize_workload

CONFIG_IDS = [config.name for config in PAPER_CONFIGS]


@pytest.fixture(scope="module")
def trace():
    return synthesize_workload("usr_0", seed=42, scale=0.02)


def _reference(trace, config, recorders=()):
    return Simulator(recorders).run(trace, build_translator(trace, config))


@pytest.mark.parametrize("config", PAPER_CONFIGS, ids=CONFIG_IDS)
def test_recorder_forces_reference_simulator(trace, config):
    recorder = SeekLogRecorder()
    fast = replay_with(trace, config, [recorder], fast=True)

    check = SeekLogRecorder()
    reference = _reference(trace, config, [check])

    assert fast.trace_name == reference.trace_name
    assert fast.translator == reference.translator
    assert fast.stats == reference.stats
    # The recorder must have seen the full reference event stream.
    assert recorder.distances == check.distances
    assert [r.is_read for r in recorder.records] == [r.is_read for r in check.records]


@pytest.mark.parametrize("config", PAPER_CONFIGS, ids=CONFIG_IDS)
def test_process_default_fast_still_falls_back(trace, config):
    common.set_fast_replay(True)
    try:
        recorder = SeekLogRecorder()
        with_recorder = replay_with(trace, config, [recorder])
        assert recorder.records or not with_recorder.stats.total_seeks
        assert with_recorder.stats == _reference(trace, config).stats
    finally:
        common.set_fast_replay(False)
