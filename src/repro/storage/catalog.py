"""Catalog of materialized artifacts.

The catalog is the metadata layer of the materialization store: it maps each
artifact's *signature* (the recursive node signature from
:mod:`repro.core.signatures`) to an :class:`ArtifactRecord` describing where
the bytes live, how large they are, which node produced them and at which
iteration.  Keying by signature rather than node name is what makes reuse
safe: a changed operator produces a different signature and therefore can
never pick up a stale artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["ArtifactRecord", "Catalog"]


@dataclass(frozen=True)
class ArtifactRecord:
    """Metadata for one materialized artifact.

    ``digest`` is the hex SHA-256 of the artifact's serialized canonical
    bytes (:func:`repro.storage.canonical.content_digest`) — the content
    address backing the distributed artifact plane: any holder of the same
    signature stores byte-identical blobs, so a blob a worker fetched can
    be checked against the same digest the coordinator's store recorded.
    Records persisted by pre-digest revisions load with an empty digest
    (unknown, never wrong).
    """

    signature: str
    node_name: str
    size_bytes: int
    iteration: int
    location: str = ""
    digest: str = ""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "ArtifactRecord":
        return ArtifactRecord(
            signature=str(payload["signature"]),
            node_name=str(payload["node_name"]),
            size_bytes=int(payload["size_bytes"]),
            iteration=int(payload["iteration"]),
            location=str(payload.get("location", "")),
            digest=str(payload.get("digest", "")),
        )


class Catalog:
    """In-memory artifact catalog with optional JSON persistence."""

    def __init__(self, path: Optional[Path] = None):
        self._records: Dict[str, ArtifactRecord] = {}
        #: node name -> signatures stored for it, in insertion order, so the
        #: per-node purge before each iteration does not scan every record.
        self._by_node: Dict[str, Dict[str, None]] = {}
        #: Running sum of the records' ``size_bytes``.
        self._total_bytes = 0
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load()

    # ------------------------------------------------------------------ basics
    def __contains__(self, signature: str) -> bool:
        return signature in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, signature: str) -> Optional[ArtifactRecord]:
        return self._records.get(signature)

    def add(self, record: ArtifactRecord) -> None:
        previous = self._records.get(record.signature)
        if previous is not None:
            self._total_bytes -= previous.size_bytes
            if previous.node_name != record.node_name:
                self._unindex(previous)
        self._records[record.signature] = record
        self._total_bytes += record.size_bytes
        self._by_node.setdefault(record.node_name, {})[record.signature] = None

    def remove(self, signature: str) -> Optional[ArtifactRecord]:
        record = self._records.pop(signature, None)
        if record is not None:
            self._total_bytes -= record.size_bytes
            self._unindex(record)
        return record

    def _unindex(self, record: ArtifactRecord) -> None:
        signatures = self._by_node[record.node_name]
        del signatures[record.signature]
        if not signatures:
            del self._by_node[record.node_name]

    def records(self) -> List[ArtifactRecord]:
        return sorted(self._records.values(), key=lambda r: (r.node_name, r.signature))

    # ------------------------------------------------------------------ queries
    def total_bytes(self) -> int:
        return self._total_bytes

    def stale_signatures(self, node_name: str, current_signature: str) -> List[str]:
        """Signatures stored for ``node_name`` that differ from the current one.

        Helix purges previous materializations of *original* (changed)
        operators before execution (Section 6.6: storage use is therefore not
        monotonic); the store uses this query to find what to purge.
        """
        return [
            signature
            for signature in self._by_node.get(node_name, ())
            if signature != current_signature
        ]

    # ------------------------------------------------------------------ persistence
    def save(self) -> None:
        if self._path is None:
            return
        payload = [record.to_dict() for record in self.records()]
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    def _load(self) -> None:
        payload = json.loads(self._path.read_text())
        for entry in payload:
            self.add(ArtifactRecord.from_dict(entry))
