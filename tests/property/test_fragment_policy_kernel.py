"""The fragment-policy kernel ≡ the per-call sequence it replaces.

:class:`repro.core.fragment_policy.FragmentPolicies` must return the hit
codes, and — once synced — leave the policy objects in the state, that
calling ``lookup`` / ``covers`` / ``note_fragment_read`` / ``admit`` one
fragment at a time produces; and its Algorithm 1 windows must replay ops
as the reference translator does one at a time.  The per-call API is the
reference translator's and stays the oracle here.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.batch import IncrementalBatchReplay
from repro.core.config import TechniqueConfig, build_translator
from repro.core.defrag import DefragConfig
from repro.core.fragment_policy import BUFFER_HIT, CACHE_HIT, DISK, FragmentPolicies
from repro.core.prefetch import LookAheadBehindPrefetcher, PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig, SelectiveFragmentCache
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import Simulator
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.util.units import BYTES_PER_MIB
from tests.differential.oracle import normalized

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
        cache and {**cache.state_dict(), "blocks": cache.state_dict()["blocks"].tolist()},
        prefetcher and prefetcher.state_dict(),
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
    policies = FragmentPolicies(*kernel_objects, None)

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

    policies = FragmentPolicies(*kernel_objects, None)
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
    # admit inserts every block, then evicts from the LRU end: a
    # fragment over more blocks than fit evicts its own head, and a
    # resident block it covers is refreshed, not evicted early.
    fragments = [(16, 8), (0, 8), (0, 40), (8, 24), (0, 8)]
    expected_objects = build(3, None)
    kernel_objects = build(3, None)
    expected = per_call(*expected_objects, fragments)
    policies = FragmentPolicies(*kernel_objects, None)
    assert policies.serve(*columns(fragments)).tolist() == expected
    policies.sync()
    assert end_state(*kernel_objects) == end_state(*expected_objects)


# Ops on a 4-sector grid over 100 sectors: reads overlap the writes and
# rewrites before them in a window, partly or wholly, and straddle holes;
# writes abut (their log pieces must merge) and land over rewrites; long
# reads over many 1-sector writes overflow a window's scratch; under
# k = 3 the count table outgrows its first nodes.
ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 15).map(lambda b: 4 * b),
              st.sampled_from([1, 2, 4, 8, 12, 24, 40])),
    max_size=90,
)


@given(
    ops=ops,
    cuts=st.lists(st.tuples(st.integers(0, 90), st.booleans()), max_size=6),
    throttles=st.tuples(st.sampled_from([2, 3]), st.sampled_from([1, 2, 3])),
    tier=st.sampled_from(["array", "extent"]),
)
# Sixteen 1-sector writes, then long reads across them, each of a new
# range: the window's scratch and the count table both run out.
@example(ops=[(False, 4 * b, 1) for b in range(16)] + [(True, 4 * b, 40) for b in range(6)],
         cuts=[], throttles=(2, 3), tier="array")
# A snapshot holding [0, 12) mid-count under k = 3 resumes; the third read
# rewrites it.
@example(ops=[(False, 4, 2), (False, 8, 2)] + [(True, 0, 12)] * 3 + [(False, 2, 4), (True, 0, 12)],
         cuts=[(4, True)], throttles=(2, 3), tier="array")
@settings(max_examples=300, deadline=None)
def test_defrag_windows_equal_the_per_op_reference(ops, cuts, throttles, tier):
    requests = [(IORequest.read if read else IORequest.write)(lba, length) for read, lba, length in ops]
    trace = Trace(requests, name="d")
    n, k = throttles
    config = TechniqueConfig(name="d", defrag=DefragConfig(min_fragments=n, min_accesses=k))
    reference_translator, recorder = build_translator(trace, config), SeekLogRecorder()
    reference = Simulator(recorders=[recorder]).run(trace, reference_translator)

    # Feed the ops in windows split at arbitrary boundaries, restoring a
    # fresh engine from a snapshot at some.
    engine = IncrementalBatchReplay(build_translator(trace, config, tier))
    is_read, lba, length = trace.as_arrays()
    bounds = sorted({min(cut, len(ops)) for cut, _restore in cuts} | {len(ops)})
    restores = {min(cut, len(ops)) for cut, restore in cuts if restore}
    lo = 0
    for hi in bounds:
        engine.feed_arrays(is_read[lo:hi], lba[lo:hi], length[lo:hi])
        if hi in restores:  # the counts as an older checkpoint's plain rows
            state = engine.state_dict()
            state["translator"]["defrag"]["access_counts"] = state["translator"]["defrag"][
                "access_counts"].tolist()
            engine = IncrementalBatchReplay.from_state(build_translator(trace, config, tier), state)
        lo = hi
    replayed = engine.result()
    assert replayed.stats == reference.stats
    assert replayed.distances.tolist() == recorder.distances
    assert normalized(replayed.translator.state_dict()) == normalized(
        reference_translator.state_dict()
    )

