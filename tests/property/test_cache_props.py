"""Property tests on the techniques' state: Algorithm 3's LRU of blocks
and Algorithm 2's FIFO of prefetch windows."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.test_prefetch import ring, windows as held
from tests.core.test_selective_cache import blocks, make_cache

lru_ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "lookup"]),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=80,
)


class TestLRUProperties:
    @given(ops=lru_ops, capacity_blocks=st.integers(min_value=1, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_capacity_never_exceeded(self, ops, capacity_blocks):
        cache = make_cache(capacity_blocks)
        for op, pba, length in ops:
            getattr(cache, op)(pba, length)
            assert len(blocks(cache)) <= capacity_blocks

    @given(ops=lru_ops)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_model(self, ops):
        """LRU semantics vs a brute-force recency-list model."""
        cache = make_cache(4)
        model = []  # blocks, LRU first

        for op, pba, length in ops:
            covering = list(range(pba // 8, (pba + length - 1) // 8 + 1))
            if op == "admit":
                cache.admit(pba, length)
                model = [b for b in model if b not in covering] + covering
                del model[:-4]
            else:
                hit = all(b in model for b in covering)
                assert cache.lookup(pba, length) == hit
                if hit:
                    model = [b for b in model if b not in covering] + covering
            assert blocks(cache) == model


windows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=600),
    ),
    max_size=40,
)


class TestPrefetchBufferProperties:
    @given(ws=windows, capacity=st.integers(min_value=100, max_value=2000))
    @settings(max_examples=150, deadline=None)
    def test_used_never_exceeds_capacity(self, ws, capacity):
        buf = ring(capacity)
        for pba, length in ws:
            buf.note_fragment_read(pba, length)
            assert sum(end - start for start, end in held(buf)) <= capacity

    @given(ws=windows)
    @settings(max_examples=150, deadline=None)
    def test_covers_iff_some_window_contains(self, ws):
        buf = ring(100_000)  # large: no eviction
        for pba, length in ws:
            buf.note_fragment_read(pba, length)
        for pba, length in ws:
            assert buf.covers(max(0, pba - 1), pba + length + 1 - max(0, pba - 1))
        assert not buf.covers(20_001, 5)
