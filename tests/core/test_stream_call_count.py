"""Tripwire: ``stream_replay`` makes a constant number of Python calls
per slab of the stream and none per fragment, a defrag ``batch_replay``
a constant number per window of ops and none per read, a plain
``batch_replay`` serves runs too short to pay for a batch call op by op,
and one extent-map batch call makes as many whatever its row count.

The policies used to cost three to five Python-level calls per fragment
and defrag a loop turn per read; the compiled kernel costs none, and a
slab or window a fixed handful.  Counting ``call`` events under
:func:`sys.setprofile` is deterministic (no timing): twice the fragments
or reads add only the calls of the extra slabs or windows.
"""

import sys

import numpy as np
import pytest

from repro.core import stream as stream_module
from repro.core.batch import _DEFRAG_WINDOW, DEFAULT_CHUNK_OPS, batch_replay
from repro.core.config import LS, LS_ALL, LS_CACHE, LS_DEFRAG, LS_PREFETCH, TechniqueConfig
from repro.core.stream import record_fragment_stream, stream_replay
from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.tiers import ENV_TIER
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.workloads import get_spec, synthesize_workload

MAX_PYTHON_CALLS = 200
PER_SLAB_CALLS = 40
PER_WINDOW_CALLS = 600

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
def traces():
    per_op = 1.0 / get_spec("hm_1").total_ops
    return [synthesize_workload("hm_1", seed=42, scale=ops * per_op) for ops in (20_000, 40_000)]


@pytest.fixture(scope="module")
def streams(traces):
    return [record_fragment_stream(trace) for trace in traces]


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


@pytest.mark.parametrize("config", [LS_DEFRAG, LS_ALL], ids=lambda config: config.name)
def test_defrag_batch_replay_python_calls_are_per_window(traces, config):
    reads = [int(trace.as_arrays()[0].sum()) for trace in traces]
    assert reads[1] >= 1.9 * reads[0]
    window = min(_DEFRAG_WINDOW, DEFAULT_CHUNK_OPS)
    windows = [-(-len(trace) // window) for trace in traces]
    calls = [python_calls(batch_replay, trace, config) for trace in traces]
    assert calls[1] - calls[0] <= PER_WINDOW_CALLS * (windows[1] - windows[0])


def batch_calls(monkeypatch, trace, config) -> int:
    """Batch calls ``batch_replay`` makes on the array map."""
    calls = []
    monkeypatch.delenv(ENV_TIER, raising=False)
    for name in ("lookup_pieces_batch", "map_range_batch"):
        method = getattr(ArrayExtentMap, name)
        monkeypatch.setattr(ArrayExtentMap, name,
                            lambda *args, _method=method: calls.append(1) or _method(*args))
    batch_replay(trace, config)
    return len(calls)


@pytest.mark.parametrize("config", [LS, LS_CACHE], ids=lambda config: config.name)
def test_tiny_runs_take_the_per_op_arms(monkeypatch, config):
    # A run of one write or one read costs less op by op than through a
    # batch entry point (_MIN_BATCH_WRITE_RUN, _MIN_BATCH_READ_RUN).  With the
    # compiled map, LS per-op vs batch k op/s on a 2-core box: writes 195 vs 99
    # at L=1, 294 vs 321 at L=8; reads 185 vs 109 at L=1, 256 vs 271 at L=3.
    alternating = Trace([request(lba, 8) for lba in range(0, 4000, 8)
                         for request in (IORequest.write, IORequest.read)])
    assert batch_calls(monkeypatch, alternating, config) == 0
    runs = Trace([IORequest.write(lba, 8) for lba in range(0, 4000, 8)]
                 + [IORequest.read(lba, 16) for lba in range(0, 4000, 16)])
    assert batch_calls(monkeypatch, runs, config) >= 1


def test_map_batch_calls_make_the_same_python_calls_at_any_row_count():
    calls = []
    for rows in (10, 10_000):
        amap, lba = ArrayExtentMap(), np.random.default_rng(rows).permutation(rows) * 16
        calls.append((python_calls(amap.map_range_batch, lba, lba + 10**6, [8] * rows),
                      python_calls(amap.lookup_pieces_batch, lba, [8] * rows)))
    assert calls[0] == calls[1]
