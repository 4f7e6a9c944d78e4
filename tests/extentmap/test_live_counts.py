"""Property tests: ZoneLiveCounts must agree with a dict-per-zone model.

:class:`~repro.extentmap.live_counts.ZoneLiveCounts` keeps the cleaning
translator's per-zone live-sector tallies as one int64 array so the batch
kernel can scatter-add whole invalidation batches.  The model here is the
obvious reference: one Python int per zone, every decrement split across
zone boundaries and clamped at zero per piece.  Any op soup that makes
them diverge — including the vectorized multi-range path against a
sequence of scalar decrements — is a bug in the repeat-expansion or the
clamp-at-the-end shortcut.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extentmap.live_counts import ZoneLiveCounts

ZONE_SECTORS = 16
N_ZONES = 8
SPACE = ZONE_SECTORS * N_ZONES


class _Model:
    """Dict-per-zone reference semantics (what the original ledger did)."""

    def __init__(self):
        self.counts = {z: 0 for z in range(N_ZONES)}

    def add(self, zone_id, sectors):
        self.counts[zone_id] += sectors

    def reset(self, zone_id):
        self.counts[zone_id] = 0

    def decrement_range(self, pba, length):
        end = pba + length
        while pba < end:
            zone_id = pba // ZONE_SECTORS
            take = min(end, (zone_id + 1) * ZONE_SECTORS) - pba
            self.counts[zone_id] = max(0, self.counts[zone_id] - take)
            pba += take


# Ranges stay in-bounds; lengths up to 3 zones wide to force splitting.
_ranges = st.tuples(
    st.integers(min_value=0, max_value=SPACE - 1),
    st.integers(min_value=1, max_value=3 * ZONE_SECTORS),
).map(lambda t: (t[0], min(t[1], SPACE - t[0])))

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=N_ZONES - 1),
            st.integers(min_value=0, max_value=2 * ZONE_SECTORS),
        ),
        st.tuples(st.just("reset"), st.integers(min_value=0, max_value=N_ZONES - 1)),
        st.tuples(st.just("dec"), _ranges),
    ),
    max_size=60,
)


def _apply(ops):
    live = ZoneLiveCounts(zone_sectors=ZONE_SECTORS, n_zones=N_ZONES)
    model = _Model()
    for op in ops:
        if op[0] == "add":
            live.add(op[1], op[2])
            model.add(op[1], op[2])
        elif op[0] == "reset":
            live.reset(op[1])
            model.reset(op[1])
        else:
            pba, length = op[1]
            live.decrement_range(pba, length)
            model.decrement_range(pba, length)
    return live, model


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_op_soup_matches_dict_model(ops):
    live, model = _apply(ops)
    assert live.counts.tolist() == [model.counts[z] for z in range(N_ZONES)]
    assert int(live.counts.sum()) == sum(model.counts.values())
    for zone in range(N_ZONES):
        assert live.get(zone) == model.counts[zone]


@given(
    ops=_ops,
    batch=st.lists(_ranges, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_batched_decrement_equals_scalar_sequence(ops, batch):
    # decrement_ranges (single scatter-add + clamp at the end) must equal
    # the per-range scalar path — the clamp-commutes-with-batching claim.
    live_batched, _ = _apply(ops)
    live_scalar, _ = _apply(ops)
    live_batched.decrement_ranges(
        np.array([p for p, _ in batch], dtype=np.int64),
        np.array([n for _, n in batch], dtype=np.int64),
    )
    for pba, length in batch:
        live_scalar.decrement_range(pba, length)
    assert live_batched.counts.tolist() == live_scalar.counts.tolist()


# Non-overlapping extent sets (what a real address map exports): sort
# random in-bounds ranges and clip each to start after its predecessor.
def _disjoint(ranges):
    out = []
    cursor = 0
    for start, length in sorted(ranges):
        start = max(start, cursor)
        end = min(start + length, SPACE)
        if end > start:
            out.append((start, end - start))
            cursor = end
    return out


@given(ranges=st.lists(_ranges, max_size=30).map(_disjoint))
@settings(max_examples=200, deadline=None)
def test_recompute_from_extents_equals_incremental(ranges):
    # Rebuilding from disjoint extents must equal crediting each extent
    # incrementally (zone-splitting included) — the invariant the cleaning
    # kernel's wholesale recompute rests on.
    incremental = ZoneLiveCounts(zone_sectors=ZONE_SECTORS, n_zones=N_ZONES)
    model = _Model()
    for pba, length in ranges:
        end = pba + length
        cursor = pba
        while cursor < end:
            zone_id = cursor // ZONE_SECTORS
            take = min(end, (zone_id + 1) * ZONE_SECTORS) - cursor
            incremental.add(zone_id, take)
            model.add(zone_id, take)
            cursor += take
    rebuilt = ZoneLiveCounts(zone_sectors=ZONE_SECTORS, n_zones=N_ZONES)
    rebuilt.add(3, 999)  # recompute must overwrite stale state
    rebuilt.recompute_from_extents(
        np.array([p for p, _ in ranges], dtype=np.int64),
        np.array([n for _, n in ranges], dtype=np.int64),
    )
    assert rebuilt.counts.tolist() == incremental.counts.tolist()
    assert rebuilt.counts.tolist() == [model.counts[z] for z in range(N_ZONES)]


def test_recompute_from_extents_empty_clears():
    live = ZoneLiveCounts(zone_sectors=ZONE_SECTORS, n_zones=N_ZONES)
    live.add(0, 7)
    live.recompute_from_extents(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    )
    assert live.counts.tolist() == [0] * N_ZONES


def test_counts_never_negative_and_clamped():
    live = ZoneLiveCounts(zone_sectors=ZONE_SECTORS, n_zones=N_ZONES)
    live.add(0, 4)
    live.decrement_range(0, ZONE_SECTORS)  # over-decrement clamps, not wraps
    assert live.get(0) == 0
    live.decrement_ranges(
        np.array([0, ZONE_SECTORS], dtype=np.int64),
        np.array([8, 8], dtype=np.int64),
    )
    assert live.counts.tolist() == [0] * N_ZONES


def test_constructor_validation():
    with pytest.raises(ValueError):
        ZoneLiveCounts(zone_sectors=0, n_zones=4)
    with pytest.raises(ValueError):
        ZoneLiveCounts(zone_sectors=8, n_zones=0)
