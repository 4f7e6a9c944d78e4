"""``IncrementalDistances`` survives a real checkpoint round trip.

``feed* -> state_dict -> CheckpointStore.save/load -> load_state`` must
answer every query exactly as the object that never left memory does —
for empty histograms, negative distances and values at the int64 edges
alike — and must read the pair-list shape older checkpoints hold.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.incremental import IncrementalDistances
from repro.disk.seek_time import SeekTimeModel
from repro.service.checkpoint import CheckpointStore
from repro.util.units import gib_to_sectors

_EDGE = gib_to_sectors(2.0)
_distance = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([-_EDGE - 1, -_EDGE, _EDGE, _EDGE + 1, -(2**40), 2**40]),
)
_feeds = st.lists(
    st.lists(st.tuples(_distance, st.booleans()), max_size=30), max_size=5
)


def _fed(feeds) -> IncrementalDistances:
    summary = IncrementalDistances()
    for feed in feeds:
        summary.feed(
            np.array([d for d, _ in feed], dtype=np.int64),
            np.array([r for _, r in feed], dtype=bool),
        )
    return summary


def _answers(summary: IncrementalDistances):
    return (
        summary.seeks,
        summary.read_seeks,
        summary.total_seek_ms(),
        summary.total_seek_ms(read_only=True),
        summary.fraction_within(2.0),
    )


@given(feeds=_feeds)
@settings(max_examples=40, deadline=None)
def test_checkpoint_round_trip_answers_identically(feeds, tmp_path_factory):
    live = _fed(feeds)
    counts = sorted(Counter(d for feed in feeds for d, _ in feed).items())
    assert live.total_seek_ms() == sum(SeekTimeModel().seek_ms(d) * c for d, c in counts)
    state = live.state_dict()
    for key in ("read_hist", "write_hist"):
        pairs = state[key]
        assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
        assert np.all(np.diff(pairs[:, 0]) > 0)  # sorted, distinct distances

    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    store.save(1, {"distances": state})
    restored = IncrementalDistances()
    restored.load_state(store.load(1)["distances"])
    assert _answers(restored) == _answers(live)

    # The shape PR <= 11 wrote: sorted [distance, count] lists in the JSON.
    from_lists = IncrementalDistances()
    from_lists.load_state({key: state[key].tolist() for key in state})
    assert _answers(from_lists) == _answers(live)
    for key in state:
        np.testing.assert_array_equal(from_lists.state_dict()[key], state[key])


def test_empty_histograms_are_zero_by_two():
    state = IncrementalDistances().state_dict()
    assert state["read_hist"].shape == state["write_hist"].shape == (0, 2)
    restored = IncrementalDistances()
    restored.load_state({"read_hist": [], "write_hist": []})
    assert restored.seeks == 0 and restored.total_seek_ms() == 0
