"""Unit tests for the operator cache (Helix's eager, engine-evicted cache)."""

from __future__ import annotations

import pytest

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
