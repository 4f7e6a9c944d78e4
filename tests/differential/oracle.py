"""The differential oracle: batch kernel vs. reference replay, exactly.

Every assertion here is *equality*, not tolerance: the batch kernels
(:mod:`repro.core.batch`) claim to reproduce the auditable pure-Python
replay bit for bit, and this helper is the single place that claim is
checked — aggregate stats, the per-seek distance log (with directions),
the final extent-map state, the write frontier and the head position.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import DEFAULT_CHUNK_OPS, batch_replay, batch_replay_translator
from repro.core.config import TechniqueConfig, build_translator
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import Simulator
from repro.core.translators import LogStructuredTranslator
from repro.trace.trace import Trace


def map_snapshot(translator) -> list:
    """The extent map as comparable (lba, pba, length) tuples."""
    return list(zip(*(column.tolist() for column in translator.address_map.extent_arrays())))


def normalized(value):
    """State-dict value with numpy containers collapsed to plain Python.

    ``state_dict()`` mixes plain scalars/lists with int64 arrays (the
    extent-map export); comparing two snapshots element-wise needs both
    sides in one representation.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {key: normalized(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalized(item) for item in value]
    return value


def assert_translator_matches_reference(
    trace: Trace,
    make_translator,
    make_batch_translator=None,
    chunk_ops: int = DEFAULT_CHUNK_OPS,
) -> None:
    """Replay ``trace`` through two identically-constructed translators —
    reference :class:`Simulator` vs :func:`batch_replay_translator` — and
    demand exactness.

    This is the translator-level twin of
    :func:`assert_batch_matches_reference` for translators with their own
    kernels but no :class:`TechniqueConfig` spelling of every knob
    (multi-frontier, zoned cleaning).  Beyond stats/distances/directions,
    the *complete checkpoint state* (``state_dict()``) must agree: for the
    cleaning translator that pins the zone ledger, live counts, allocation
    order and cleaning counters; for multi-frontier the per-frontier
    cursors, write tallies and classifier recency set.

    ``make_batch_translator`` defaults to ``make_translator``; pass a
    different factory to drive the kernel on another (exact) extent-map
    tier than the reference.
    """
    reference_translator = make_translator()
    recorder = SeekLogRecorder()
    reference = Simulator(recorders=[recorder]).run(trace, reference_translator)

    batch_translator = (make_batch_translator or make_translator)()
    batch = batch_replay_translator(trace, batch_translator, chunk_ops)

    label = f"{trace.name}/{type(reference_translator).__name__}"
    assert batch.run_result.trace_name == reference.trace_name, label
    assert batch.run_result.translator == reference.translator, label
    assert batch.stats == reference.stats, (
        f"{label}: stats diverge\nreference={reference.stats}\nbatch={batch.stats}"
    )
    assert list(batch.distances) == recorder.distances, (
        f"{label}: seek-distance logs diverge"
    )
    assert list(batch.distance_is_read) == [r.is_read for r in recorder.records], (
        f"{label}: seek directions diverge"
    )
    ref_state = normalized(reference_translator.state_dict())
    batch_state = normalized(batch_translator.state_dict())
    assert batch_state.keys() == ref_state.keys(), label
    for key in ref_state:
        assert batch_state[key] == ref_state[key], (
            f"{label}: state_dict[{key!r}] diverges\n"
            f"reference={ref_state[key]!r}\nbatch={batch_state[key]!r}"
        )


def feed_requests(engine, requests) -> None:
    """Feed request objects to an ``IncrementalBatchReplay`` as columns."""
    engine.feed_arrays(*Trace(list(requests)).as_arrays())


def assert_batch_matches_reference(trace: Trace, config: TechniqueConfig) -> None:
    """Replay ``trace`` both ways under ``config`` and demand exactness."""
    reference_translator = build_translator(trace, config)
    recorder = SeekLogRecorder()
    reference = Simulator(recorders=[recorder]).run(trace, reference_translator)

    batch = batch_replay(trace, config)

    label = f"{trace.name}/{config.name}"
    assert batch.run_result.trace_name == reference.trace_name, label
    assert batch.run_result.translator == reference.translator, label
    assert batch.stats == reference.stats, (
        f"{label}: stats diverge\nreference={reference.stats}\nbatch={batch.stats}"
    )
    assert list(batch.distances) == recorder.distances, (
        f"{label}: seek-distance logs diverge"
    )
    assert list(batch.distance_is_read) == [r.is_read for r in recorder.records], (
        f"{label}: seek directions diverge"
    )
    assert (
        batch.translator.head.position == reference_translator.head.position
    ), f"{label}: final head positions diverge"
    if isinstance(reference_translator, LogStructuredTranslator):
        assert map_snapshot(batch.translator) == map_snapshot(
            reference_translator
        ), f"{label}: final extent maps diverge"
        assert (
            batch.translator.frontier == reference_translator.frontier
        ), f"{label}: final frontiers diverge"
        # Technique-internal state must track too: it feeds later decisions.
        for attribute in ("defrag", "prefetcher", "cache"):
            ref_part = getattr(reference_translator, attribute)
            batch_part = getattr(batch.translator, attribute)
            assert (ref_part is None) == (batch_part is None), label
        if reference_translator.cache is not None:
            assert batch.translator.cache.hits == reference_translator.cache.hits
            assert batch.translator.cache.misses == reference_translator.cache.misses
            assert np.array_equal(
                batch.translator.cache.state_dict()["blocks"],
                reference_translator.cache.state_dict()["blocks"],
            )
        if reference_translator.prefetcher is not None:
            assert (
                batch.translator.prefetcher.window_reads
                == reference_translator.prefetcher.window_reads
            )
        if reference_translator.defrag is not None:
            assert np.array_equal(
                batch.translator.defrag.state_dict()["access_counts"],
                reference_translator.defrag.state_dict()["access_counts"],
            )


def assert_stream_matches_reference(
    trace: Trace, config: TechniqueConfig, chunk_ops: int = 8192
) -> None:
    """Record + stream-evaluate ``trace`` under ``config``; demand exactness.

    The stream kernels (:mod:`repro.core.stream`) cover the defrag-free
    configurations; this oracle checks the same surface as the batch one —
    stats, distance log with directions, head position — plus the recorded
    layout translator against the reference end-state (cache/prefetch never
    remap, so the plain-LS layout *is* the reference layout).
    """
    from repro.core.stream import record_fragment_stream, stream_replay

    reference_translator = build_translator(trace, config)
    recorder = SeekLogRecorder()
    reference = Simulator(recorders=[recorder]).run(trace, reference_translator)

    stream = record_fragment_stream(trace, chunk_ops=chunk_ops)
    result = stream_replay(stream, config)

    label = f"{trace.name}/{config.name} (stream)"
    assert result.run_result.trace_name == reference.trace_name, label
    assert result.run_result.translator == reference.translator, label
    assert result.run_result.stats == reference.stats, (
        f"{label}: stats diverge\nreference={reference.stats}\n"
        f"stream={result.run_result.stats}"
    )
    assert list(result.distances) == recorder.distances, (
        f"{label}: seek-distance logs diverge"
    )
    assert list(result.distance_is_read) == [r.is_read for r in recorder.records], (
        f"{label}: seek directions diverge"
    )
    assert result.head_position == reference_translator.head.position, (
        f"{label}: final head positions diverge"
    )
    assert result.frontier == reference_translator.frontier, (
        f"{label}: final frontiers diverge"
    )
    assert map_snapshot(stream.layout) == map_snapshot(reference_translator), (
        f"{label}: final extent maps diverge"
    )
    assert stream.layout.frontier == reference_translator.frontier, label
    if reference_translator.cache is not None:
        assert result.cache is not None, label
        assert result.cache.hits == reference_translator.cache.hits, label
        assert result.cache.misses == reference_translator.cache.misses, label
        assert np.array_equal(
            result.cache.state_dict()["blocks"],
            reference_translator.cache.state_dict()["blocks"],
        ), label
    else:
        assert result.cache is None, label
    if reference_translator.prefetcher is not None:
        assert result.prefetcher is not None, label
        assert (
            result.prefetcher.window_reads
            == reference_translator.prefetcher.window_reads
        ), label
    else:
        assert result.prefetcher is None, label
