"""Tripwire: ``stream_replay`` makes a constant number of Python calls
per slab of the stream, and none per fragment.

The policy configurations used to cost three to five Python-level calls
per fragment; the fragment-policy kernel costs none.  The stream is
served and seek-classified ``_SLAB`` accesses at a time so that scratch
stays slab-sized, which costs a fixed handful of calls per slab.
Counting ``call`` events under :func:`sys.setprofile` is deterministic
(no timing): a stream with twice the fragments adds only the calls of
its extra slabs.
"""

import sys

import pytest

from repro.core import stream as stream_module
from repro.core.config import LS_CACHE, LS_PREFETCH, TechniqueConfig
from repro.core.stream import record_fragment_stream, stream_replay
from repro.workloads import get_spec, synthesize_workload

MAX_PYTHON_CALLS = 200
PER_SLAB_CALLS = 40

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
    # Twice the fragments, and more slabs: a per-fragment call would show.
    assert fragments[1] >= 1.9 * fragments[0]
    assert -(-fragments[1] // stream_module._SLAB) > -(-fragments[0] // stream_module._SLAB)

    slabs = [-(-stream.accesses // stream_module._SLAB) for stream in streams]
    calls = [python_calls(stream_replay, stream, config) for stream in streams]
    assert calls[0] <= MAX_PYTHON_CALLS
    assert calls[1] - calls[0] <= PER_SLAB_CALLS * (slabs[1] - slabs[0])
