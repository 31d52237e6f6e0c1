"""Unit tests for the materialization stores, catalog and serialization."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ArtifactNotFoundError, BudgetExceededError, StorageError
from repro.storage.catalog import ArtifactRecord, Catalog
from repro.storage.serialization import (
    deserialize,
    estimate_size_bytes,
    serialize,
    serialized_size,
)
from repro.storage.store import DiskStore, InMemoryStore, modelled_io_seconds


class TestSerialization:
    def test_round_trip(self):
        value = {"a": [1, 2, 3], "b": np.arange(4)}
        restored = deserialize(serialize(value))
        assert restored["a"] == [1, 2, 3]
        assert np.array_equal(restored["b"], np.arange(4))

    def test_serialized_size_positive(self):
        assert serialized_size([1, 2, 3]) > 0

    def test_estimate_uses_object_hook(self):
        class Sized:
            def estimated_size_bytes(self):
                return 12345

        assert estimate_size_bytes(Sized()) == 12345

    def test_estimate_numpy(self):
        assert estimate_size_bytes(np.zeros(1000)) >= 8000

    def test_estimate_scalars_and_strings(self):
        assert estimate_size_bytes(1) == 32
        assert estimate_size_bytes("hello") == 49 + 5
        assert estimate_size_bytes(None) == 32

    def test_estimate_containers(self):
        assert estimate_size_bytes([1, 2, 3]) > 3 * 32
        assert estimate_size_bytes({"a": 1}) > 32


class TestCatalog:
    def _record(self, signature="sig", node="n", size=10, iteration=0):
        return ArtifactRecord(signature=signature, node_name=node, size_bytes=size, iteration=iteration)

    def test_add_get_remove(self):
        catalog = Catalog()
        catalog.add(self._record())
        assert "sig" in catalog
        assert catalog.get("sig").node_name == "n"
        catalog.remove("sig")
        assert "sig" not in catalog

    def test_total_bytes_and_by_node(self):
        catalog = Catalog()
        catalog.add(self._record("s1", "a", 10))
        catalog.add(self._record("s2", "a", 20))
        catalog.add(self._record("s3", "b", 5))
        assert catalog.total_bytes() == 35
        assert len(catalog.stale_signatures("a", "")) == 2

    def test_stale_signatures(self):
        catalog = Catalog()
        catalog.add(self._record("old", "a"))
        catalog.add(self._record("new", "a"))
        assert catalog.stale_signatures("a", "new") == ["old"]

    def test_node_index_matches_a_scan_of_the_records(self, tmp_path):
        """stale_signatures answers from the node index; a scan of every
        record is the reference, across add, replace, remove and reload."""
        rng = random.Random(13)
        path = tmp_path / "catalog.json"
        catalog = Catalog(path=path)
        nodes = [f"n{i}" for i in range(5)]
        for step in range(600):
            signature = f"s{rng.randrange(30)}"
            if rng.random() < 0.6:
                catalog.add(self._record(signature, rng.choice(nodes), size=step))
            else:
                catalog.remove(signature)
            if step % 100 == 99:
                catalog.save()
                catalog = Catalog(path=path)
            for node in nodes:
                scanned = [r for r in catalog.records() if r.node_name == node]
                assert sorted(catalog.stale_signatures(node, "")) == [r.signature for r in scanned]
                assert sorted(catalog.stale_signatures(node, "s7")) == [
                    r.signature for r in scanned if r.signature != "s7"
                ]
        assert catalog.stale_signatures("ghost", "") == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "add", "remove", "reload"]),
                st.sampled_from(["s0", "s1", "s2", "s3"]),
                st.sampled_from(["a", "b"]),
                st.integers(0, 10**9),
            ),
            max_size=30,
        )
    )
    def test_running_total_equals_the_resum(self, tmp_path_factory, operations):
        """``total_bytes`` keeps a running total; re-summing every record is
        the reference, across add, replace, remove and reload."""
        path = tmp_path_factory.mktemp("catalog") / "catalog.json"
        catalog = Catalog(path=path)
        for operation, signature, node, size in operations:
            if operation == "add":
                catalog.add(self._record(signature, node, size=size))
            elif operation == "remove":
                catalog.remove(signature)
            else:
                catalog.save()
                catalog = Catalog(path=path)
            assert catalog.total_bytes() == sum(record.size_bytes for record in catalog.records())

    def test_persistence(self, tmp_path):
        path = tmp_path / "catalog.json"
        catalog = Catalog(path=path)
        catalog.add(self._record())
        catalog.save()
        reloaded = Catalog(path=path)
        assert "sig" in reloaded
        assert reloaded.get("sig").size_bytes == 10

    def test_record_round_trip(self):
        record = self._record()
        assert ArtifactRecord.from_dict(record.to_dict()) == record


class TestInMemoryStore:
    def test_put_load_round_trip(self):
        store = InMemoryStore()
        artifact = store.put("node", "sig", {"value": 42})
        assert artifact.record.size_bytes > 0
        assert artifact.write_time > 0
        value, load_time = store.load("sig")
        assert value == {"value": 42}
        assert load_time > 0

    def test_put_is_idempotent(self):
        store = InMemoryStore()
        store.put("node", "sig", [1, 2, 3])
        second = store.put("node", "sig", [1, 2, 3])
        assert second.write_time == 0.0
        assert len(store.artifacts()) == 1

    def test_missing_artifact_raises(self):
        with pytest.raises(ArtifactNotFoundError):
            InMemoryStore().load("nope")

    def test_budget_enforced(self):
        store = InMemoryStore(budget_bytes=64)
        with pytest.raises(BudgetExceededError):
            store.put("node", "sig", list(range(1000)))
        assert store.total_bytes() == 0

    def test_remaining_budget(self):
        store = InMemoryStore(budget_bytes=10_000)
        assert store.remaining_budget() == 10_000
        store.put("node", "sig", [1])
        assert store.remaining_budget() < 10_000
        assert InMemoryStore().remaining_budget() is None

    def test_negative_budget_rejected(self):
        with pytest.raises(StorageError):
            InMemoryStore(budget_bytes=-1)

    def test_delete_and_clear(self):
        store = InMemoryStore()
        store.put("node", "sig", 1)
        store.delete("sig")
        assert not store.has("sig")
        store.put("n1", "s1", 1)
        store.put("n2", "s2", 2)
        store.clear()
        assert store.total_bytes() == 0

    def test_purge_node_keeps_current_signature(self):
        store = InMemoryStore()
        store.put("node", "old_sig", 1)
        store.put("node", "new_sig", 2)
        store.put("other", "other_sig", 3)
        removed = store.purge_node("node", keep_signature="new_sig")
        assert removed == ["old_sig"]
        assert store.has("new_sig") and store.has("other_sig")

    def test_purge_node_removes_in_insertion_order_and_clear_forgets_nodes(self):
        store = InMemoryStore()
        for index in range(6):
            store.put("node", f"sig{index}", index)
            store.put(f"other{index}", f"other_sig{index}", index)
        store.delete("sig2")
        assert store.purge_node("node", keep_signature="sig4") == ["sig0", "sig1", "sig3", "sig5"]
        assert store.purge_node("node", keep_signature="sig4") == []
        assert store.purge_node("never_stored") == []
        assert len(store.artifacts()) == 7
        store.clear()
        assert store.catalog.stale_signatures("node", "") == [] and store.purge_node("other0") == []

    def test_modelled_io_time_scales_with_size(self):
        store = InMemoryStore()
        small = store.put("a", "s_small", list(range(10)))
        large = store.put("b", "s_large", list(range(10_000)))
        assert large.write_time > small.write_time
        assert large.write_time == modelled_io_seconds(large.record.size_bytes)
        assert store.load("s_large")[1] == large.write_time


class TestDiskStore:
    def test_put_load_round_trip(self, tmp_path):
        store = DiskStore(tmp_path / "artifacts")
        store.put("node", "sig", {"x": np.arange(10)})
        value, load_time = store.load("sig")
        assert np.array_equal(value["x"], np.arange(10))
        assert load_time >= 0

    def test_files_created_and_removed(self, tmp_path):
        root = tmp_path / "artifacts"
        store = DiskStore(root)
        store.put("node", "sig", [1, 2, 3])
        assert any(root.iterdir())
        store.delete("sig")
        assert not any(root.iterdir())

    def test_missing_file_raises(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("node", "sig", 1)
        for path in tmp_path.glob("*.hc"):
            path.unlink()
        with pytest.raises(ArtifactNotFoundError):
            store.load("sig")

    def test_budget_enforced(self, tmp_path):
        store = DiskStore(tmp_path, budget_bytes=16)
        with pytest.raises(BudgetExceededError):
            store.put("node", "sig", list(range(1000)))
        assert not any(tmp_path.glob("*.hc"))
