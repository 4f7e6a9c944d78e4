"""Technique containers checkpoint as int64 arrays, order intact.

``OpportunisticDefrag``, ``SelectiveFragmentCache`` and
``RecencyClassifier`` hold *ordered* containers (insertion / LRU order
decides future evictions), so their array state must round-trip in
exactly the order it was emitted — never sorted — and restores must read
the plain lists older checkpoints carry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.defrag import DefragConfig, OpportunisticDefrag
from repro.core.multifrontier import RecencyClassifier
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.util.bulkstate import hist_to_pairs, int_rows, pairs_to_hist


def _as_lists(state: dict) -> dict:
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


def _defrag():
    policy = OpportunisticDefrag(DefragConfig(min_accesses=3))
    for lba, length in [(900, 8), (16, 4), (500, 2), (16, 4), (7, 1)]:
        policy.should_defragment(lba, length, fragments=3)
    return policy, OpportunisticDefrag(DefragConfig(min_accesses=3))


def _cache():
    config = SelectiveCacheConfig(capacity_mib=1.0)
    cache = SelectiveFragmentCache(config)
    for pba in (4096, 8, 100_000, 8, 512):
        cache.admit(pba, 16)
    cache.lookup(4096, 8)  # refresh: 4096's blocks become most recent
    return cache, SelectiveFragmentCache(config)


def _classifier():
    classifier = RecencyClassifier()
    for lba in (800, 8, 400, 8, 1600, 0):
        classifier.classify_and_note(lba, 8)
    return classifier, RecencyClassifier()


@pytest.mark.parametrize(
    "build, key, shape_tail",
    [(_defrag, "access_counts", (3,)), (_cache, "blocks", ()), (_classifier, "recent", ())],
    ids=["defrag", "cache", "classifier"],
)
def test_ordered_state_round_trips_as_int64_in_order(build, key, shape_tail):
    source, fresh = build()
    state = source.state_dict()
    bulk = state[key]
    assert isinstance(bulk, np.ndarray) and bulk.dtype == np.int64
    assert len(bulk) >= 3 and bulk.shape[1:] == shape_tail
    first = bulk.tolist()
    assert first != sorted(first)  # the fixture really is out of sorted order

    fresh.load_state(state)
    assert fresh.state_dict()[key].tolist() == first
    _, from_lists = build()
    from_lists.load_state(_as_lists(state))  # the pre-array checkpoint shape
    assert _as_lists(from_lists.state_dict()) == _as_lists(state)


def test_empty_containers_keep_their_shape():
    assert OpportunisticDefrag(DefragConfig()).state_dict()["access_counts"].shape == (0, 3)
    policy = OpportunisticDefrag(DefragConfig())
    policy.load_state({"access_counts": []})
    assert policy.state_dict()["access_counts"].shape == (0, 3)


def test_hist_pairs_helpers():
    hist = {5: 2, -3: 7, 0: 1}
    pairs = hist_to_pairs(hist)
    assert pairs.tolist() == [[-3, 7], [0, 1], [5, 2]]
    assert pairs_to_hist(pairs) == pairs_to_hist(pairs.tolist()) == hist
    assert all(type(k) is int and type(v) is int for k, v in pairs_to_hist(pairs).items())
    assert hist_to_pairs({}).shape == int_rows([], 2).shape == (0, 2)
    assert pairs_to_hist([]) == {}
