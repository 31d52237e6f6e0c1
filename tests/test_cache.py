"""Unit tests for the operator cache (Helix's eager, engine-evicted cache)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutionError
from repro.execution.cache import CacheEntry, OperatorCache


class TestEagerCache:
    def test_put_get(self):
        cache = OperatorCache()
        cache.put("a", [1, 2, 3])
        assert cache.get("a").value == [1, 2, 3]
        assert "a" in cache
        assert len(cache) == 1

    def test_get_missing_raises(self):
        with pytest.raises(ExecutionError):
            OperatorCache().get("nope")

    def test_evict(self):
        cache = OperatorCache()
        cache.put("a", 1)
        entry = cache.evict("a")
        assert isinstance(entry, CacheEntry)
        assert entry.value == 1
        assert "a" not in cache
        assert cache.evict("a") is None

    def test_snapshot_bytes_tracks_entries(self):
        cache = OperatorCache()
        assert cache.snapshot_bytes() == 0
        cache.put("a", list(range(100)))
        assert cache.snapshot_bytes() > 0
        before = cache.snapshot_bytes()
        cache.put("b", list(range(1000)))
        assert cache.snapshot_bytes() > before

    def test_explicit_size_respected(self):
        cache = OperatorCache()
        cache.put("a", "value", size_bytes=12345)
        assert cache.snapshot_bytes() == 12345

    def test_clear(self):
        cache = OperatorCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.sampled_from("abcd"), st.integers(0, 10**6)),
                st.tuples(st.just("evict"), st.sampled_from("abcde"), st.just(0)),
                st.tuples(st.just("clear"), st.just(""), st.just(0)),
            ),
            max_size=40,
        )
    )
    def test_running_bytes_equal_the_resum(self, operations):
        """``snapshot_bytes`` keeps a running total; re-summing every entry
        is the reference, across replacing puts, evictions and clears."""
        cache = OperatorCache()
        for operation, name, size in operations:
            if operation == "put":
                cache.put(name, name, size_bytes=size)
            elif operation == "evict":
                cache.evict(name)
            else:
                cache.clear()
            assert cache.snapshot_bytes() == sum(entry.size_bytes for entry in cache._entries.values())
