"""The fragment-policy kernel ≡ the per-call sequence it replaces.

:func:`repro.core.fragment_policy.serve_fragments` must return the hit
codes, and leave the policy objects in the state, that calling
``lookup`` / ``covers`` / ``note_fragment_read`` / ``admit`` one fragment
at a time produces — the per-call API is the reference translator's and
stays the oracle here.
"""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import fragment_policy
from repro.core.fragment_policy import BUFFER_HIT, CACHE_HIT, DISK, serve_fragments
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
            "evictions": cache.evictions,
            "hits": cache.hits,
            "misses": cache.misses,
        },
        prefetcher and {
            "windows": prefetcher._buffer.windows(),
            "used_sectors": prefetcher._buffer.used_sectors,
            "window_reads": prefetcher.window_reads,
        },
    )


# Multi-block fragments over a small physical span (so blocks and windows
# recur), a few of them near pba 0 where the look-behind window clips.
fragment_lists = st.lists(
    st.tuples(st.integers(0, 1500), st.integers(1, 120)), max_size=60
)
cache_blocks = st.sampled_from([None, 1, 3, 40])
# (behind KiB, ahead KiB, buffer MiB): the 0.01 MiB buffer (21 sectors) is
# smaller than most windows, so they are truncated to it.
prefetch_shapes = st.sampled_from(
    [None, (4.0, 4.0, 0.01), (0.0, 16.0, 0.05), (64.0, 0.5, 0.125), (8.0, 8.0, 1.0)]
)
# The kernel converts its columns slab by slab: 1 and 7 put every list
# across slab boundaries, the shipped value keeps it in one.
slabs = st.sampled_from([1, 7, fragment_policy._SLAB])


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
    blocks=cache_blocks,
    shape=prefetch_shapes,
    slab=slabs,
)
@settings(max_examples=400, deadline=None)
def test_kernel_equals_per_call_sequence(warm_up, fragments, blocks, shape, slab):
    assume(blocks is not None or shape is not None)
    expected_objects = build(blocks, shape)
    kernel_objects = build(blocks, shape)
    # Both sides start from the same non-trivial state and counters.
    per_call(*expected_objects, warm_up)
    per_call(*kernel_objects, warm_up)

    expected = per_call(*expected_objects, fragments)
    with mock.patch.object(fragment_policy, "_SLAB", slab):
        served = serve_fragments(
            *kernel_objects, [f[0] for f in fragments], [f[1] for f in fragments]
        )

    assert served.tolist() == expected
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

    columns = [f[0] for f in fragments], [f[1] for f in fragments]
    if message is None:
        serve_fragments(*kernel_objects, *columns)
    else:
        with pytest.raises(ValueError) as raised:
            serve_fragments(*kernel_objects, *columns)
        assert str(raised.value) == message
    # The fragments ahead of the rejected one were applied, no others.
    assert end_state(*kernel_objects) == end_state(*expected_objects)
