"""Property tests on the caching substrates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache
from repro.cache.prefetch_buffer import PrefetchBuffer

lru_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "touch", "invalidate", "query"]),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=80,
)


class TestLRUProperties:
    @given(ops=lru_ops, capacity_blocks=st.integers(min_value=1, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_capacity_never_exceeded(self, ops, capacity_blocks):
        cache = LRUCache(capacity_bytes=capacity_blocks * 8 * 512)
        for op, pba, length in ops:
            if op == "insert":
                cache.insert_range(pba, length)
            elif op == "touch":
                cache.touch_range(pba, length)
            elif op == "invalidate":
                cache.invalidate_range(pba, length)
            else:
                cache.contains_range(pba, length)
            assert cache.used_blocks <= capacity_blocks

    @given(ops=lru_ops)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_model(self, ops):
        """LRU semantics vs a brute-force recency-list model."""
        cache = LRUCache(capacity_bytes=4 * 8 * 512)
        model = []  # blocks, LRU first

        def blocks_of(pba, length):
            return list(range(pba // 8, (pba + length - 1) // 8 + 1))

        for op, pba, length in ops:
            blocks = blocks_of(pba, length)
            if op == "insert":
                cache.insert_range(pba, length)
                for b in blocks:
                    if b in model:
                        model.remove(b)
                    model.append(b)
                del model[:-4]
            elif op == "touch":
                cache.touch_range(pba, length)
                for b in blocks:
                    if b in model:
                        model.remove(b)
                        model.append(b)
            elif op == "invalidate":
                cache.invalidate_range(pba, length)
                model = [b for b in model if b not in blocks]
            else:
                assert cache.contains_range(pba, length) == all(
                    b in model for b in blocks
                )
            assert sorted(cache) == sorted(model)


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
        buf = PrefetchBuffer(capacity)
        for start, length in ws:
            buf.add_window(start, start + length)
            assert buf.used_sectors <= capacity

    @given(ws=windows)
    @settings(max_examples=150, deadline=None)
    def test_covers_iff_some_window_contains(self, ws):
        buf = PrefetchBuffer(100_000)  # large: no eviction
        kept = []
        for start, length in ws:
            buf.add_window(start, start + length)
            kept.append((start, start + length))
        for start, end in kept:
            assert buf.covers(start, end - start)
        assert not buf.covers(20_001, 5)
