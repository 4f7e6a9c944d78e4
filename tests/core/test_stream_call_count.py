"""Tripwire: ``stream_replay`` makes a constant number of Python calls.

The policy configurations used to cost three to five Python-level calls
per fragment; the fragment-policy kernel costs none.  Counting ``call``
events under :func:`sys.setprofile` is deterministic (no timing), and the
count must not depend on how many fragments the stream holds.
"""

import sys

import pytest

from repro.core import fragment_policy
from repro.core.config import LS_CACHE, LS_PREFETCH, TechniqueConfig
from repro.core.stream import record_fragment_stream, stream_replay
from repro.workloads import get_spec, synthesize_workload

MAX_PYTHON_CALLS = 200

CONFIGS = [
    LS_PREFETCH,
    LS_CACHE,
    TechniqueConfig(
        name="LS+prefetch+cache", prefetch=LS_PREFETCH.prefetch, cache=LS_CACHE.cache
    ),
]


def python_calls(function, *args) -> int:
    """Python-level function calls made while ``function(*args)`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def streams():
    per_op = 1.0 / get_spec("hm_1").total_ops
    return [
        record_fragment_stream(synthesize_workload("hm_1", seed=42, scale=ops * per_op))
        for ops in (20_000, 40_000)
    ]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_stream_replay_python_calls_are_constant(streams, config):
    small, large = streams
    fragments = [int(stream.group_size.sum()) for stream in streams]
    # Twice the fragments, and more kernel slabs: per-slab calls would show.
    assert fragments[1] >= 1.9 * fragments[0]
    assert -(-fragments[1] // fragment_policy._SLAB) > -(-fragments[0] // fragment_policy._SLAB)

    calls = python_calls(stream_replay, small, config)
    assert calls <= MAX_PYTHON_CALLS
    assert python_calls(stream_replay, large, config) == calls
