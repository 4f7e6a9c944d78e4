"""Differential oracle: the multi-frontier batch kernel vs. the reference.

:class:`~repro.core.multifrontier.MultiFrontierTranslator` routes each
write to a hot or cold frontier via a stateful recency classifier, so its
kernel (:mod:`repro.core.batch`) interleaves scalar classification with
vectorized mapping/classification of everything else.  These tests demand
bit-exactness against the per-request reference on

* generated Table I workloads under the config-level spelling
  (``TechniqueConfig(multi_frontier=...)``) and hand-built translators,
* synthetic traces targeting the kernel's edges (frontier switches,
  batched-run mapping thresholds, reads spanning holes and both regions),
* Hypothesis request soups over a tight LBA space with a tiny recency
  window (maximal hot/cold churn; the window is a module constant, which
  these tests patch while they build a translator),
* chunk-size independence, and
* checkpoint/restore at arbitrary batch boundaries into fresh translators.

Every comparison includes the translator's complete ``state_dict()`` —
per-frontier cursors, write tallies, switch count, classifier LRU set —
not just the aggregate stats.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import IncrementalBatchReplay, batch_replay, batch_replay_translator
from repro.core.config import MultiFrontierConfig, TechniqueConfig
from repro.core import multifrontier
from repro.core.multifrontier import MultiFrontierTranslator
from repro.core.simulator import replay
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, make_address_map, resolve_map_tier
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload

from tests.differential.oracle import (assert_batch_matches_reference,
                                       assert_translator_matches_reference, feed_requests,
                                       normalized)

WORKLOADS = ("usr_0", "hm_1", "w91", "w20")
SCALE = 0.02


@pytest.fixture(scope="module")
def traces():
    return {name: synthesize_workload(name, seed=42, scale=SCALE) for name in WORKLOADS}


def _region_for(trace) -> int:
    """A per-frontier region comfortably holding every write of ``trace``."""
    return sum(r.length for r in trace if not r.is_read) + 4096


def _translator(frontier_base, region_sectors, window, tier=None):
    with mock.patch.object(multifrontier, "RECENCY_WINDOW", window):
        return MultiFrontierTranslator(
            frontier_base=frontier_base,
            region_sectors=region_sectors,
            address_map=make_address_map(tier),
        )


def _factory(trace, window=64, tier=None):
    region = _region_for(trace)
    return lambda: _translator(trace.max_end, region, window, tier)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_table1_workloads_match(traces, workload):
    trace = traces[workload]
    assert_translator_matches_reference(trace, _factory(trace))


@pytest.mark.parametrize("workload", ("w91", "hm_1"))
def test_array_map_tier_matches_too(traces, workload):
    # The kernel's preferred tier on the batch side, reference tier on the
    # reference side: exactness must not depend on the map implementation.
    trace = traces[workload]
    assert_translator_matches_reference(
        trace,
        _factory(trace),
        make_batch_translator=_factory(trace, tier=resolve_map_tier(DEFAULT_KERNEL_TIER)),
    )


def test_config_level_spelling_matches(traces):
    trace = traces["w91"]
    config = TechniqueConfig(
        name="LS+wolf",
        multi_frontier=MultiFrontierConfig(),
    )
    assert_batch_matches_reference(trace, config)


# --- synthetic edge cases ------------------------------------------------

_HOT = [IORequest.write(0, 8) for _ in range(6)]
_COLD = [IORequest.write(64 + i * 16, 8) for i in range(6)]

SYNTHETIC = {
    "empty": Trace([]),
    "single-write": Trace([IORequest.write(0, 8)]),
    "all-cold-scatter": Trace([IORequest.write((i * 37) % 192, 5) for i in range(24)]),
    "hot-after-cold-switches": Trace(_COLD + _HOT + _COLD + _HOT),
    "interleaved-switch-per-op": Trace(
        [req for pair in zip(_HOT, _COLD) for req in pair]
    ),
    "long-write-run-batched-map": Trace(
        # >= the kernel's batched-run threshold, single frontier throughout.
        [IORequest.write(i * 8, 8) for i in range(40)]
    ),
    "read-spans-hole-and-log": Trace(
        [IORequest.write(0, 4), IORequest.read(0, 8)]
    ),
    "read-after-hot-and-cold": Trace(
        _COLD + _HOT + [IORequest.read(i * 8, 8) for i in range(20)]
    ),
    "rewrite-migrates-frontier": Trace(
        # The same LBA goes cold-frontier first, hot-frontier on rewrite.
        [IORequest.write(0, 16), IORequest.write(0, 16), IORequest.read(0, 16)]
    ),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
def test_synthetic_edge_cases_match(case):
    trace = SYNTHETIC[case]
    assert_translator_matches_reference(trace, _factory(trace, window=2))


@pytest.mark.parametrize("chunk_ops", [1, 3, 7, 64])
def test_chunk_size_is_unobservable(traces, chunk_ops):
    trace = traces["w91"]
    make = _factory(trace)
    baseline = batch_replay_translator(trace, make())
    rechunked = batch_replay_translator(trace, make(), chunk_ops)
    assert rechunked.stats == baseline.stats
    assert list(rechunked.distances) == list(baseline.distances)
    assert list(rechunked.distance_is_read) == list(baseline.distance_is_read)


def test_exhaustion_raises_identically():
    # A region too small for its writes must fail with the reference's
    # message, after applying the identical prefix.
    trace = Trace([IORequest.write(i * 8, 8) for i in range(8)], name="exhaust")

    def make():
        return _translator(128, 32, window=2)

    with pytest.raises(ValueError) as ref_exc:
        replay(trace, make())
    reference = make()
    with pytest.raises(ValueError):
        replay(trace, reference)
    batch = make()
    with pytest.raises(ValueError) as batch_exc:
        batch_replay_translator(trace, batch)
    assert str(batch_exc.value) == str(ref_exc.value)
    # Frontier bookkeeping is synced before the raise, so the failed
    # engines agree on how far they got.
    assert normalized(batch.state_dict())["frontiers"] == normalized(
        reference.state_dict()
    )["frontiers"]


def test_read_crossing_log_base_raises_identically():
    trace = Trace([IORequest.read(120, 16)], name="crossing")

    def make():
        return MultiFrontierTranslator(frontier_base=128, region_sectors=1024)

    with pytest.raises(ValueError) as ref_exc:
        replay(trace, make())
    with pytest.raises(ValueError) as batch_exc:
        batch_replay_translator(trace, make())
    assert str(batch_exc.value) == str(ref_exc.value)


# --- hypothesis + checkpointing -----------------------------------------

_LBA_SPACE = 256
_MAX_LENGTH = 24

_requests = st.lists(
    st.builds(
        lambda is_read, lba, length: (
            IORequest.read(lba, length) if is_read else IORequest.write(lba, length)
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=_LBA_SPACE - _MAX_LENGTH),
        st.integers(min_value=1, max_value=_MAX_LENGTH),
    ),
    max_size=120,
)


def _soup_factory(window):
    return lambda: _translator(_LBA_SPACE, 65536, window)


@given(requests=_requests, window=st.sampled_from([1, 2, 8, 4096]))
@settings(max_examples=60, deadline=None)
def test_request_soup_matches(requests, window):
    trace = Trace(requests, name="soup")
    assert_translator_matches_reference(trace, _soup_factory(window))


@given(
    requests=_requests,
    cuts=st.lists(st.integers(min_value=0, max_value=120), max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_checkpoint_restore_is_invisible(requests, cuts):
    make = _soup_factory(window=4)
    oneshot = IncrementalBatchReplay(make(), trace_name="soup")
    feed_requests(oneshot, requests)

    bounds = sorted({min(c, len(requests)) for c in cuts})
    engine = IncrementalBatchReplay(make(), trace_name="soup")
    last = 0
    for cut in bounds + [len(requests)]:
        feed_requests(engine, requests[last:cut])
        last = cut
        engine = IncrementalBatchReplay.from_state(make(), engine.state_dict())
    assert engine.result().stats == oneshot.result().stats
    assert normalized(engine.state_dict()) == normalized(oneshot.state_dict())
