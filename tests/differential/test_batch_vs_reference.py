"""Differential oracle: the vectorized batch kernels vs. the reference replay.

The batch kernels in :mod:`repro.core.batch` are only allowed to exist
because they are *exactly* equivalent to the per-request pure-Python
simulator — same seek counts, same seek-distance log (sign and order),
same final extent-map state.  These tests enforce that contract on

* generated Table I workloads from both trace families, under every
  technique configuration,
* hand-built synthetic traces targeting the kernel's edge cases (empty
  traces, hole reads, overlap splits, frontier checks),
* chunk-size independence (the chunk boundary is an implementation
  detail and must never be observable), and
* the rows the exhibits read at full scale, where the paper's shapes are
  asserted (``tests/integration/test_paper_shapes.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchUnsupportedError, batch_replay, batch_replay_translator
from repro.core.config import ALL_CONFIGS, LS_ALL, NOLS, PAPER_CONFIGS, build_translator
from repro.core.simulator import replay
from repro.core.translators import LogStructuredTranslator
from repro.experiments.sweep import SweepEngine
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload

from tests.differential.oracle import assert_batch_matches_reference

# Both trace families, mixing read-heavy, write-heavy and scan-flavoured
# entries so every technique (defrag, prefetch, cache) gets exercised.
WORKLOADS = ("usr_0", "src2_2", "hm_1", "w91", "w84", "w20")
SCALE = 0.02
CONFIGS = {c.name: c for c in ALL_CONFIGS}


@pytest.fixture(scope="module")
def traces():
    return {name: synthesize_workload(name, seed=42, scale=SCALE) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_table1_workloads_match(traces, workload, config_name):
    assert_batch_matches_reference(traces[workload], CONFIGS[config_name])


def test_different_seeds_still_match(traces):
    # The oracle must hold for any generated instance, not just seed 42.
    for seed in (7, 1234):
        trace = synthesize_workload("hm_1", seed=seed, scale=SCALE)
        assert_batch_matches_reference(trace, LS_ALL)


def test_full_scale_exhibit_rows_match():
    # The production routing (stream path for prefetch/cache, batch kernel
    # for NoLS/defrag) against the reference, on w64: Table I's most
    # fragmented reads under LS (19 807 at seed 42).
    kernels, reference = SweepEngine(42, 1.0), SweepEngine(42, 1.0, fast=False)
    for config in (NOLS, *PAPER_CONFIGS):
        expected = reference.workload_replay("w64", config).stats
        assert kernels.workload_replay("w64", config).stats == expected, config.name


# --- synthetic edge cases ------------------------------------------------

def _trace(requests, name="synthetic"):
    return Trace(requests, name=name)


SYNTHETIC = {
    "empty": _trace([]),
    "single-read-hole": _trace([IORequest.read(10, 4)]),
    "single-write": _trace([IORequest.write(0, 8)]),
    "read-after-write": _trace([IORequest.write(0, 8), IORequest.read(0, 8)]),
    "read-spans-hole-and-log": _trace(
        # [0,4) is remapped into the log, [4,8) is a hole at identity.
        [IORequest.write(0, 4), IORequest.read(0, 8)]
    ),
    "overlap-split": _trace(
        # The second write splits the first extent; the read sees 3 pieces.
        [IORequest.write(0, 12), IORequest.write(4, 4), IORequest.read(0, 12)]
    ),
    "rewrite-everything": _trace(
        [IORequest.write(0, 16), IORequest.write(0, 16), IORequest.read(0, 16)]
    ),
    "reads-only": _trace([IORequest.read(i * 8, 8) for i in range(10)]),
    "writes-only": _trace([IORequest.write((i * 37) % 64, 5) for i in range(10)]),
    "sequential-after-scatter": _trace(
        [IORequest.write((i * 29) % 96, 3) for i in range(20)]
        + [IORequest.read(i * 4, 4) for i in range(24)]
    ),
    "repeated-fragmented-read": _trace(
        # Same fragmented range read repeatedly: exercises cache admit/hit
        # and the prefetch window on consecutive resolutions.
        [IORequest.write(0, 32), IORequest.write(8, 8), IORequest.write(20, 4)]
        + [IORequest.read(0, 32) for _ in range(4)]
    ),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_synthetic_edge_cases_match(case, config_name):
    assert_batch_matches_reference(SYNTHETIC[case], CONFIGS[config_name])


@pytest.mark.parametrize("chunk_ops", [1, 2, 3, 7, 64])
def test_chunk_size_is_unobservable(traces, chunk_ops):
    trace = traces["src2_2"]
    baseline = batch_replay(trace, LS_ALL)
    rechunked = batch_replay(trace, LS_ALL, chunk_ops=chunk_ops)
    assert rechunked.stats == baseline.stats
    assert list(rechunked.distances) == list(baseline.distances)
    assert list(rechunked.distance_is_read) == list(baseline.distance_is_read)


def test_frontier_crossing_raises_identically():
    trace = _trace([IORequest.read(4, 8)], name="crossing")
    reference = LogStructuredTranslator(frontier_base=8)
    batch = LogStructuredTranslator(frontier_base=8)
    with pytest.raises(ValueError) as ref_exc:
        replay(trace, reference)
    with pytest.raises(ValueError) as batch_exc:
        batch_replay_translator(trace, batch)
    assert str(batch_exc.value) == str(ref_exc.value)


def test_unsupported_translator_is_refused():
    from repro.core.translators import InPlaceTranslator

    class KernellessTranslator(InPlaceTranslator):
        pass

    trace = _trace([IORequest.write(0, 8)])
    with pytest.raises(BatchUnsupportedError, match="KernellessTranslator"):
        batch_replay_translator(trace, KernellessTranslator())


def test_seek_distance_histograms_match(traces):
    # Bucketed distance distributions (what the figures plot) agree too —
    # a coarser but figure-facing view of the distance-log equality above.
    from repro.core.recorders import SeekLogRecorder

    trace = traces["usr_0"]
    recorder = SeekLogRecorder()
    replay(trace, build_translator(trace, LS_ALL), [recorder])
    batch = batch_replay(trace, LS_ALL)

    reference = np.asarray(recorder.read_distances, dtype=np.int64)
    both = np.concatenate([reference, batch.read_distances])
    span = (both.min(), both.max())
    for bins in (16, 1024, 65536):
        assert np.array_equal(
            np.histogram(batch.read_distances, bins, span)[0],
            np.histogram(reference, bins, span)[0],
        )


def test_lookup_pieces_matches_lookup():
    # The kernel leans on lookup_pieces(); it must agree with the
    # segment-object lookup() it shortcuts, including the base-class
    # fallback any third-party AddressMap would inherit.
    from repro.extentmap.base import AddressMap
    from repro.extentmap.extent_map import ExtentMap

    extent_map = ExtentMap()
    for i in range(40):
        extent_map.map_range((i * 23) % 128, 1000 + i * 7, 1 + (i % 5))
    for lba in range(0, 140, 3):
        for length in (1, 4, 17):
            via_lookup = [
                (seg.lba if seg.is_hole else seg.pba, seg.length, seg.is_hole)
                for seg in extent_map.lookup(lba, length)
            ]
            assert extent_map.lookup_pieces(lba, length) == via_lookup
            assert AddressMap.lookup_pieces(extent_map, lba, length) == via_lookup


def test_nols_matches_too(traces):
    # The in-place (NoLS) kernel is a separate, fully-vectorized path.
    for workload in WORKLOADS:
        assert_batch_matches_reference(traces[workload], NOLS)
