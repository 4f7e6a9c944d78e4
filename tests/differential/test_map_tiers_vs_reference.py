"""Extent-map tiers are unobservable: array tier == extent tier, exactly.

The ``REPRO_EXTENT_MAP`` environment variable forces one
:mod:`repro.extentmap.tiers` tier everywhere — reference simulator, batch
kernels, stream recording, service checkpoints.  These tests pin the
tier contract from every consumer's side:

* batch replay under either tier matches the reference simulator *and*
  produces tier-identical results (stats, seek log, extent map, head);
* fragment-stream recording resolves through different map entry points
  per tier (batch calls vs. per-op lookups) yet must emit bit-identical
  streams;
* checkpoint state crosses tiers: a ``state_dict`` saved from an
  array-tier engine restores into an extent-tier translator (and vice
  versa) and continues bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import IncrementalBatchReplay, batch_replay
from repro.core.config import LS, LS_ALL, PAPER_CONFIGS, build_translator_for_base
from repro.core.stream import record_fragment_stream
from repro.extentmap.tiers import ENV_TIER, MAP_TIERS
from repro.trace.record import IORequest
from repro.trace.trace import Trace

from tests.differential.oracle import assert_batch_matches_reference, feed_requests, map_snapshot


def _churn_trace(n_ops: int = 600, space: int = 512) -> Trace:
    """Deterministic read/write mix over a tight LBA space (max churn)."""
    rng = np.random.default_rng(1234)
    requests = []
    for i in range(n_ops):
        lba = int(rng.integers(0, space - 32))
        length = int(rng.integers(1, 32))
        if rng.random() < 0.55:
            requests.append(IORequest.read(lba, length))
        else:
            requests.append(IORequest.write(lba, length))
    return Trace(requests, name="tier-churn")


@pytest.fixture(scope="module")
def trace():
    return _churn_trace()


@pytest.mark.parametrize("tier", MAP_TIERS)
@pytest.mark.parametrize("config", list(PAPER_CONFIGS), ids=lambda c: c.name)
def test_batch_matches_reference_under_forced_tier(
    trace, config, tier, monkeypatch
):
    monkeypatch.setenv(ENV_TIER, tier)
    assert_batch_matches_reference(trace, config)


@pytest.mark.parametrize("config", list(PAPER_CONFIGS), ids=lambda c: c.name)
def test_batch_replay_identical_across_tiers(trace, config, monkeypatch):
    results = {}
    for tier in MAP_TIERS:
        monkeypatch.setenv(ENV_TIER, tier)
        results[tier] = batch_replay(trace, config)
    extent, array = results["extent"], results["array"]
    assert extent.stats == array.stats
    assert np.array_equal(extent.distances, array.distances)
    assert np.array_equal(extent.distance_is_read, array.distance_is_read)
    assert extent.translator.head.position == array.translator.head.position
    assert map_snapshot(extent.translator) == map_snapshot(array.translator)
    assert extent.translator.frontier == array.translator.frontier


def test_stream_recording_identical_across_tiers(trace, monkeypatch):
    """The array tier resolves runs through the map's batch calls, the
    extent tier op by op; the streams must be bit-identical."""
    streams = {}
    for tier in MAP_TIERS:
        monkeypatch.setenv(ENV_TIER, tier)
        streams[tier] = record_fragment_stream(trace)
    extent, array = streams["extent"], streams["array"]
    for column in ("pba", "length", "kind", "op_index", "group_start", "group_size"):
        got, want = getattr(array, column), getattr(extent, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column
    for counter in (
        "frontier_base", "frontier", "reads", "writes",
        "sectors_read", "sectors_written", "read_fragments", "fragmented_reads",
    ):
        assert getattr(array, counter) == getattr(extent, counter), counter
    assert map_snapshot(array.layout) == map_snapshot(extent.layout)
    assert array.layout.head.position == extent.layout.head.position


def test_stream_recording_raises_identically_across_tiers():
    """Recording pre-scans each batch for frontier-base violations; the
    reference per-op loop hits them mid-replay.  Same exception, same
    message, whichever map tier the recording translator runs on.

    ``record_fragment_stream`` sizes the log at ``trace.max_end`` so the
    public entry can never violate; drive its recording driver directly
    with an undersized translator to pin the parity.
    """
    from repro.core.simulator import Simulator
    from repro.core.batch import IncrementalBatchReplay
    from repro.core.translators import LogStructuredTranslator
    from repro.extentmap.tiers import make_address_map

    trace = Trace(
        [IORequest.write(0, 8), IORequest.read(900, 200)], name="crosser"
    )
    with pytest.raises(ValueError) as reference:
        Simulator().run(trace, LogStructuredTranslator(frontier_base=512))
    for tier in MAP_TIERS:
        recording = LogStructuredTranslator(
            frontier_base=512, address_map=make_address_map(tier)
        )
        with pytest.raises(ValueError) as recorded:
            IncrementalBatchReplay(recording)._replay_runs(*trace.as_arrays(), [])
        assert type(recorded.value) is type(reference.value), tier
        assert str(recorded.value) == str(reference.value), tier


@pytest.mark.parametrize(
    "save_tier,restore_tier", [("array", "extent"), ("extent", "array")]
)
def test_checkpoint_state_crosses_tiers(trace, save_tier, restore_tier):
    """A state_dict written by one tier restores into the other and the
    replay continues bit-identically — checkpoints outlive tier choices."""
    frontier_base = trace.max_end
    oneshot = IncrementalBatchReplay(
        build_translator_for_base(frontier_base, LS_ALL, save_tier),
        trace_name=trace.name,
    )
    feed_requests(oneshot, trace.requests)

    half = len(trace.requests) // 2
    first = IncrementalBatchReplay(
        build_translator_for_base(frontier_base, LS_ALL, save_tier),
        trace_name=trace.name,
    )
    feed_requests(first, trace.requests[:half])
    resumed = IncrementalBatchReplay.from_state(
        build_translator_for_base(frontier_base, LS_ALL, restore_tier),
        first.state_dict(),
    )
    feed_requests(resumed, trace.requests[half:])

    got, want = resumed.result(), oneshot.result()
    assert got.run_result.stats == want.run_result.stats
    assert np.array_equal(got.distances, want.distances)
    assert map_snapshot(resumed.translator) == map_snapshot(oneshot.translator)
    assert resumed.translator.frontier == oneshot.translator.frontier
    assert resumed.translator.head.position == oneshot.translator.head.position


@pytest.mark.parametrize("config", [LS, LS_ALL], ids=lambda c: c.name)
def test_chunk_size_is_unobservable_on_array_tier(trace, config, monkeypatch):
    """Chunked feeding must not change array-tier results (run splitting
    and overlay flush points move with the chunk boundaries)."""
    monkeypatch.setenv(ENV_TIER, "array")
    whole = batch_replay(trace, config)
    chunked = batch_replay(trace, config, chunk_ops=37)
    assert whole.stats == chunked.stats
    assert np.array_equal(whole.distances, chunked.distances)
    assert map_snapshot(whole.translator) == map_snapshot(chunked.translator)
