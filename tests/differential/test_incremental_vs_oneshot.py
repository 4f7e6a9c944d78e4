"""Checkpoint/restore is invisible: resumed replay == one-shot replay.

The streaming service's whole recovery story rests on one property of
:class:`repro.core.batch.IncrementalBatchReplay`: exporting
``state_dict()`` at *any* batch boundary, serializing it, and restoring
it with ``from_state()`` into a **fresh translator** must continue the
replay bit-identically — same counters, same seek-distance log, same
fragment histogram, same extent map.  Hypothesis drives that property
with arbitrary small traces over a tight LBA space (maximal extent-map
churn) and arbitrary checkpoint boundaries, including back-to-back
checkpoints (empty segments), a checkpoint before the first op, and one
after the last.

Two serialization paths are exercised:

* an in-memory byte round-trip through the checkpoint codec's
  array-split + JSON skeleton (every array crosses a real ``.npy``
  byte-stream, every scalar crosses JSON), and
* the real on-disk :class:`repro.service.checkpoint.CheckpointStore`
  (atomic entry commit, checksum verification, prune).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import IncrementalBatchReplay
from repro.core.config import LS, LS_ALL, NOLS, build_translator_for_base
from repro.service.checkpoint import CheckpointStore, _join_arrays, _split_arrays
from repro.trace.record import IORequest
from tests.differential.oracle import feed_requests

# A tight LBA space maximizes overlap/rewrite churn per op (matches the
# existing differential hypothesis suite).
_LBA_SPACE = 256
_MAX_LENGTH = 24
_FRONTIER_BASE = _LBA_SPACE

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


@st.composite
def _replay_case(draw):
    """A request stream plus arbitrary checkpoint boundaries within it."""
    requests = draw(_requests)
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(requests)),
            max_size=6,
        )
    )
    return requests, sorted(set(cuts))


def _segments(requests, cuts):
    bounds = [0] + list(cuts) + [len(requests)]
    return [requests[a:b] for a, b in zip(bounds, bounds[1:])]


def _serialize_roundtrip(state: dict) -> dict:
    """Push ``state_dict`` output through real byte serialization.

    Arrays go through an actual ``.npy`` byte stream (``np.save`` /
    ``np.load``), the skeleton through JSON — the same split the on-disk
    checkpoint codec uses, so nothing survives by object identity.
    """
    arrays = {}
    skeleton = _split_arrays(state, "", arrays)
    skeleton = json.loads(json.dumps(skeleton, sort_keys=True))
    restored_arrays = {}
    for key, array in arrays.items():
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array))
        buffer.seek(0)
        restored_arrays[key] = np.load(buffer)
    return _join_arrays(skeleton, restored_arrays)


def _engine(config):
    return IncrementalBatchReplay(
        build_translator_for_base(_FRONTIER_BASE, config),
        trace_name="hypothesis",
        track_fragments=True,
    )


def _assert_state_identical(got, want, path=""):
    """Bit-level equality over the nested state dict (dtype included)."""
    assert type(got) is type(want) or (
        isinstance(got, (int, bool)) and isinstance(want, (int, bool))
    ), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, path
        assert np.array_equal(got, want), path
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_state_identical(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_state_identical(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


def _assert_engines_identical(resumed, oneshot):
    assert resumed.ops_applied == oneshot.ops_applied
    assert resumed.fragment_hist == oneshot.fragment_hist
    got, want = resumed.result(), oneshot.result()
    assert got.run_result.stats == want.run_result.stats
    assert got.distances.dtype == want.distances.dtype
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.distance_is_read, want.distance_is_read)
    _assert_state_identical(resumed.state_dict(), oneshot.state_dict())


@pytest.mark.parametrize("config", [NOLS, LS, LS_ALL], ids=lambda c: c.name)
@given(case=_replay_case())
@settings(max_examples=30, deadline=None)
def test_resume_at_arbitrary_boundaries_is_bit_identical(config, case):
    requests, cuts = case
    oneshot = _engine(config)
    feed_requests(oneshot, requests)

    # At every cut: snapshot, serialize through real bytes, restore into
    # a FRESH translator, and continue — repeatedly, in a chain.
    engine = _engine(config)
    for segment in _segments(requests, cuts):
        feed_requests(engine, segment)
        state = _serialize_roundtrip(engine.state_dict())
        engine = IncrementalBatchReplay.from_state(
            build_translator_for_base(_FRONTIER_BASE, config), state
        )
    _assert_engines_identical(engine, oneshot)


@given(case=_replay_case())
@settings(max_examples=10, deadline=None)
def test_resume_through_on_disk_checkpoint_store(case, tmp_path_factory):
    """Same property through the real on-disk checkpoint entry format."""
    requests, cuts = case
    oneshot = _engine(LS_ALL)
    feed_requests(oneshot, requests)

    root = tmp_path_factory.mktemp("ckpt")
    engine = _engine(LS_ALL)
    for i, segment in enumerate(_segments(requests, cuts)):
        feed_requests(engine, segment)
        store = CheckpointStore(root / f"chain-{i}")
        store.save(i, engine.state_dict())
        state = store.load(i)
        engine = IncrementalBatchReplay.from_state(
            build_translator_for_base(_FRONTIER_BASE, LS_ALL), state
        )
    _assert_engines_identical(engine, oneshot)
