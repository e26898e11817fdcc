"""Content-addressed, crash-safe on-disk result store.

Disk layout (documented in ``docs/store/layout.md``)::

    <root>/
      objects/<ss>/<spec_hash>-<registry_hash>.json   # ss = spec_hash[:2]
      quarantine/<original name>.<n>.corrupt          # failed checksums
      manifests/<corpus name>.json                    # run manifests

Every entry file is the canonical JSON of::

    {"format": 1, "spec_hash": ..., "registry_hash": ...,
     "sha256": <hex digest of the canonical payload JSON>,
     "payload": {...}}

Writes are atomic (temp file + fsync + rename via ``repro.ioutil``), so
a killed run leaves either a complete entry or none.  Reads verify the
embedded checksum against the payload; a mismatch raises
:class:`~repro.errors.StoreCorruptionError`, and callers quarantine the
file (:meth:`ResultStore.quarantine`) and recompute — a corrupt entry
can cost a recomputation, never a wrong result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

from repro.canon import stable_json
from repro.errors import StoreCorruptionError
from repro.ioutil import atomic_write_text, sweep_temp_files

from repro.corpus.hashing import sha256_hex

#: On-disk entry format version.
STORE_FORMAT = 1


@dataclass(frozen=True)
class StoreKey:
    """Content address of one corpus unit's result."""

    spec_hash: str
    registry_hash: str

    @property
    def filename(self) -> str:
        return f"{self.spec_hash}-{self.registry_hash}.json"

    @property
    def shard(self) -> str:
        """Two-character fan-out directory (first spec-hash byte)."""
        return self.spec_hash[:2]


class ResultStore:
    """Content-addressed study results under a root directory."""

    def __init__(self, root: str):
        self.root = root

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def manifests_dir(self) -> str:
        return os.path.join(self.root, "manifests")

    def path(self, key: StoreKey) -> str:
        """Absolute path of the entry file for ``key``."""
        return os.path.join(self.objects_dir, key.shard, key.filename)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------

    def put(self, key: StoreKey, payload: Mapping[str, Any]) -> str:
        """Atomically store ``payload`` under ``key``; returns the path.

        The payload must be JSON-ready; its canonical JSON is the
        checksummed content, so a later :meth:`load` returns a value
        that re-serializes bit-identically.
        """
        canonical = stable_json(payload)
        entry = {
            "format": STORE_FORMAT,
            "spec_hash": key.spec_hash,
            "registry_hash": key.registry_hash,
            "sha256": sha256_hex(canonical),
            "payload": json.loads(canonical),
        }
        path = self.path(key)
        atomic_write_text(path, stable_json(entry) + "\n")
        return path

    def load(self, key: StoreKey) -> "dict[str, Any] | None":
        """Return the verified payload for ``key``, or ``None`` if absent.

        Raises :class:`~repro.errors.StoreCorruptionError` when the
        entry exists but is unreadable, structurally wrong, or fails
        its checksum — the caller decides whether to quarantine and
        recompute (:meth:`quarantine`).
        """
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise StoreCorruptionError(path, f"unreadable: {error}") from None
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError as error:
            raise StoreCorruptionError(path, f"invalid JSON ({error})") from None
        if not isinstance(entry, dict) or "payload" not in entry:
            raise StoreCorruptionError(path, "missing payload")
        recorded = entry.get("sha256")
        actual = sha256_hex(stable_json(entry["payload"]))
        if recorded != actual:
            raise StoreCorruptionError(
                path,
                f"checksum mismatch (recorded {str(recorded)[:12]}..., "
                f"actual {actual[:12]}...)",
            )
        return entry["payload"]

    def has(self, key: StoreKey) -> bool:
        """True when a (possibly corrupt) entry file exists for ``key``."""
        return os.path.exists(self.path(key))

    # ------------------------------------------------------------------
    # corruption handling
    # ------------------------------------------------------------------

    def quarantine(self, key: StoreKey) -> "str | None":
        """Move ``key``'s entry file aside for post-mortem inspection.

        Returns the quarantine path, or ``None`` when the entry is
        already gone (e.g. another resuming run moved it first).
        """
        source = self.path(key)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        for attempt in range(1000):
            target = os.path.join(
                self.quarantine_dir, f"{key.filename}.{attempt}.corrupt"
            )
            if os.path.exists(target):
                continue
            try:
                os.replace(source, target)
            except FileNotFoundError:
                return None
            return target
        raise StoreCorruptionError(source, "quarantine directory overflow")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def remove_orphaned_temps(self) -> list[str]:
        """Remove orphaned temp files left by killed writers."""
        removed = sweep_temp_files(self.root)
        for directory, _dirs, _files in os.walk(self.objects_dir):
            removed.extend(sweep_temp_files(directory))
        removed.extend(sweep_temp_files(self.manifests_dir))
        return removed

    def entry_count(self) -> int:
        """Number of entry files currently stored."""
        count = 0
        for _directory, _dirs, files in os.walk(self.objects_dir):
            count += sum(1 for name in files if name.endswith(".json"))
        return count
