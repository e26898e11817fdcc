"""Content-addressed result store: atomic writes, checksum verification,
quarantine, and the shared canonical-JSON hashing."""

import json
import os

import pytest

from repro.corpus.hashing import (
    canonical_hash,
    registry_hash,
    registry_snapshot,
    spec_hash,
)
from repro.corpus.store import ResultStore, StoreKey
from repro.errors import StoreCorruptionError
from repro.ioutil import atomic_write_text, sweep_temp_files
from repro.canon import stable_json

PAYLOAD = {
    "scenario": "s",
    "study": "sweep",
    "kind": "partition_sweep",
    "text": "table",
    "rows": [{"chiplets": 1, "RE total": 123.456}],
}


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def key():
    return StoreKey(spec_hash="aa" * 32, registry_hash="bb" * 32)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello")
        with open(path) as handle:
            assert handle.read() == "hello"

    def test_no_temp_files_left(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "hello")
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []

    def test_failure_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "original")

        def boom(_fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement")
        with open(path) as handle:
            assert handle.read() == "original"
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []

    def test_sweep_removes_orphaned_temp_files(self, tmp_path):
        orphan = tmp_path / "entry.json.tmp.12345"
        orphan.write_text("partial")
        keeper = tmp_path / "entry.json"
        keeper.write_text("complete")
        removed = sweep_temp_files(str(tmp_path))
        assert removed == [str(orphan)]
        assert keeper.exists() and not orphan.exists()


class TestStoreRoundTrip:
    def test_put_then_load(self, store, key):
        store.put(key, PAYLOAD)
        assert store.load(key) == PAYLOAD

    def test_missing_entry_is_none(self, store, key):
        assert store.load(key) is None
        assert not store.has(key)

    def test_entry_path_is_sharded_by_spec_hash(self, store, key):
        path = store.put(key, PAYLOAD)
        assert os.path.join("objects", key.spec_hash[:2]) in path
        assert path.endswith(f"{key.spec_hash}-{key.registry_hash}.json")

    def test_put_is_bit_stable(self, store, key):
        path = store.put(key, PAYLOAD)
        with open(path, "rb") as handle:
            first = handle.read()
        store.put(key, json.loads(stable_json(PAYLOAD)))
        with open(path, "rb") as handle:
            assert handle.read() == first

    def test_entry_checksum_covers_payload(self, store, key):
        path = store.put(key, PAYLOAD)
        with open(path) as handle:
            entry = json.load(handle)
        assert entry["format"] == 1
        assert entry["sha256"] == canonical_hash(entry["payload"])

    def test_entry_count(self, store, key):
        assert store.entry_count() == 0
        store.put(key, PAYLOAD)
        assert store.entry_count() == 1


class TestCorruptionDetection:
    def test_flipped_payload_byte_raises(self, store, key):
        path = store.put(key, PAYLOAD)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace("123.456", "999.456"))
        with pytest.raises(StoreCorruptionError, match="checksum mismatch"):
            store.load(key)

    def test_truncated_entry_raises(self, store, key):
        path = store.put(key, PAYLOAD)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(StoreCorruptionError, match="invalid JSON"):
            store.load(key)

    def test_quarantine_moves_entry_aside(self, store, key):
        path = store.put(key, PAYLOAD)
        target = store.quarantine(key)
        assert target is not None and target.endswith(".corrupt")
        assert not os.path.exists(path)
        assert os.path.exists(target)
        assert store.load(key) is None

    def test_quarantine_twice_uses_distinct_names(self, store, key):
        store.put(key, PAYLOAD)
        first = store.quarantine(key)
        store.put(key, PAYLOAD)
        second = store.quarantine(key)
        assert first != second

    def test_quarantine_of_missing_entry_is_none(self, store, key):
        assert store.quarantine(key) is None


class TestHashing:
    SECTIONS = {"nodes": {"x": {"base": "7nm", "wafer_price": 1.0}}}

    def test_spec_hash_deterministic(self):
        study = {"kind": "partition_sweep", "name": "s", "module_area": 100}
        assert spec_hash(study, {}) == spec_hash(dict(study), {})

    def test_spec_hash_sensitive_to_study_fields(self):
        a = spec_hash({"kind": "partition_sweep", "module_area": 100}, {})
        b = spec_hash({"kind": "partition_sweep", "module_area": 200}, {})
        assert a != b

    def test_spec_hash_sensitive_to_sections(self):
        study = {"kind": "partition_sweep", "module_area": 100}
        assert spec_hash(study, {}) != spec_hash(study, self.SECTIONS)

    def test_empty_sections_hash_like_absent_sections(self):
        study = {"kind": "montecarlo", "draws": 10}
        assert spec_hash(study, {"nodes": {}}) == spec_hash(study, {})

    def test_registry_hash_stable_and_covers_all_registries(self):
        snapshot = registry_snapshot()
        assert set(snapshot) == {
            "nodes", "technologies", "d2d_interfaces",
            "yield_models", "wafer_geometries",
        }
        assert "7nm" in snapshot["nodes"]
        assert registry_hash() == registry_hash()

    def test_registry_hash_changes_with_registry_content(self):
        from repro.registry.nodes import node_registry

        before = registry_hash()
        registry = node_registry()
        registry.register_spec(
            "corpus-test-node", {"base": "7nm", "wafer_price": 4321.0}
        )
        try:
            assert registry_hash() != before
        finally:
            registry.unregister("corpus-test-node")
        assert registry_hash() == before
