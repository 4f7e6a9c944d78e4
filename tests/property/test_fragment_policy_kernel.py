"""The fragment-policy kernel ≡ the per-call sequence it replaces.

:class:`repro.core.fragment_policy.FragmentPolicies` must return the hit
codes, and — once synced — leave the policy objects in the state, that
calling ``lookup`` / ``covers`` / ``note_fragment_read`` / ``admit`` one
fragment at a time produces.  The per-call API is the reference
translator's and stays the oracle here.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fragment_policy import BUFFER_HIT, CACHE_HIT, DISK, FragmentPolicies
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.util.units import BYTES_PER_MIB

BLOCK_BYTES = 8 * 512


def per_call(cache, prefetcher, fragments):
    """The reference translator's service order, one fragment at a time."""
    codes = []
    for pba, length in fragments:
        if cache is not None and cache.lookup(pba, length):
            codes.append(CACHE_HIT)
            continue
        if prefetcher is not None and prefetcher.covers(pba, length):
            codes.append(BUFFER_HIT)
            continue
        if prefetcher is not None:
            prefetcher.note_fragment_read(pba, length)
        if cache is not None:
            cache.admit(pba, length)
        codes.append(DISK)
    return codes


def end_state(cache, prefetcher):
    return (
        cache and {
            "blocks": cache._lru.resident_blocks(),
            "evictions": cache._lru.evictions,
            "hits": cache.hits,
            "misses": cache.misses,
        },
        prefetcher and {
            "windows": prefetcher._buffer.windows(),
            "used_sectors": prefetcher._buffer.used_sectors,
            "window_reads": prefetcher.window_reads,
        },
    )


def columns(fragments):
    return [f[0] for f in fragments], [f[1] for f in fragments]


# Multi-block fragments over three small physical spans (so blocks and
# windows recur): near pba 0, where the look-behind window clips, and near
# 2**62 and 2**63, as far up as a window's end stays below 2**63.
pbas = st.one_of(
    st.integers(0, 1500),
    st.integers(2**62 - 800, 2**62 + 800),
    st.integers(2**63 - 1700, 2**63 - 200),
)
fragment_lists = st.lists(st.tuples(pbas, st.integers(1, 120)), max_size=60)
cache_blocks = st.sampled_from([None, 1, 3, 40])
# (behind KiB, ahead KiB, buffer MiB): the 0.01 MiB buffer (21 sectors) is
# smaller than most windows, so they are truncated to it.
prefetch_shapes = st.sampled_from(
    [None, (4.0, 4.0, 0.01), (0.0, 16.0, 0.05), (64.0, 0.5, 0.125), (8.0, 8.0, 1.0)]
)


def build(blocks, shape):
    cache = prefetcher = None
    if blocks is not None:
        cache = SelectiveFragmentCache(
            SelectiveCacheConfig(capacity_mib=blocks * BLOCK_BYTES / BYTES_PER_MIB)
        )
    if shape is not None:
        prefetcher = LookAheadBehindPrefetcher(PrefetchConfig(*shape))
    return cache, prefetcher


@given(
    warm_up=fragment_lists,
    fragments=fragment_lists,
    cuts=st.lists(st.tuples(st.integers(0, 60), st.booleans()), max_size=6),
    blocks=cache_blocks,
    shape=prefetch_shapes,
)
@settings(max_examples=400, deadline=None)
def test_kernel_equals_per_call_sequence(warm_up, fragments, cuts, blocks, shape):
    assume(blocks is not None or shape is not None)
    expected_objects = build(blocks, shape)
    kernel_objects = build(blocks, shape)
    # Both sides start from the same non-trivial state and counters.
    per_call(*expected_objects, warm_up)
    per_call(*kernel_objects, warm_up)
    policies = FragmentPolicies(*kernel_objects)

    # Serve the list in calls split at arbitrary boundaries, syncing at some.
    bounds = sorted({min(cut, len(fragments)) for cut, _sync in cuts} | {len(fragments)})
    syncs = {min(cut, len(fragments)) for cut, sync in cuts if sync}
    served, lo = [], 0
    for hi in bounds:
        expected = per_call(*expected_objects, fragments[lo:hi])
        served += policies.serve(*columns(fragments[lo:hi])).tolist()
        assert served[lo:] == expected
        if hi in syncs:
            policies.sync()
            assert end_state(*kernel_objects) == end_state(*expected_objects)
        lo = hi
    policies.sync()
    assert end_state(*kernel_objects) == end_state(*expected_objects)


@given(
    fragments=fragment_lists,
    rejected=st.tuples(st.integers(-40, 40), st.integers(-3, 3)).filter(
        lambda f: f[0] < 0 or f[1] <= 0
    ),
    position=st.integers(0, 60),
    blocks=cache_blocks,
    shape=prefetch_shapes,
)
@settings(max_examples=300, deadline=None)
def test_invalid_fragment_raises_what_the_per_call_api_raises(
    fragments, rejected, position, blocks, shape
):
    assume(blocks is not None or shape is not None)
    fragments = list(fragments)
    fragments.insert(min(position, len(fragments)), rejected)
    expected_objects = build(blocks, shape)
    kernel_objects = build(blocks, shape)
    try:
        per_call(*expected_objects, fragments)
    except ValueError as error:
        message = str(error)
    else:
        # Without a cache nothing checks pba: a negative one is a window
        # clipped at 0, which the kernel must then serve, not reject.
        assert blocks is None and rejected[1] > 0
        message = None

    policies = FragmentPolicies(*kernel_objects)
    if message is None:
        policies.serve(*columns(fragments))
        policies.sync()
    else:
        with pytest.raises(ValueError) as raised:
            policies.serve(*columns(fragments))
        assert str(raised.value) == message
    # The fragments ahead of the rejected one were applied, no others.
    assert end_state(*kernel_objects) == end_state(*expected_objects)


def test_a_fragment_wider_than_the_cache_keeps_its_tail():
    # insert_range inserts every block, then evicts from the LRU end: a
    # fragment over more blocks than fit evicts its own head, and a
    # resident block it covers is refreshed, not evicted early.
    fragments = [(16, 8), (0, 8), (0, 40), (8, 24), (0, 8)]
    expected_objects = build(3, None)
    kernel_objects = build(3, None)
    expected = per_call(*expected_objects, fragments)
    policies = FragmentPolicies(*kernel_objects)
    assert policies.serve(*columns(fragments)).tolist() == expected
    policies.sync()
    assert end_state(*kernel_objects) == end_state(*expected_objects)
