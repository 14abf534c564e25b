"""The client-side document cache with local query support.

Caches every document the client has seen (from lookups and real-time
snapshots) together with "the necessary local indexes" — here, the cache
answers queries by filtering and sorting its contents with the same
comparison semantics the server's indexes encode, which is behaviourally
identical for the document counts a device holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.path import Path
from repro.core.query import NormalizedQuery
from repro.realtime.frontend import query_order_key
from repro.realtime.matcher import document_matches_query


@dataclass(slots=True)
class CachedDocument:
    """One cached document (or a cached tombstone: data None)."""

    path: Path
    data: Optional[dict]
    #: server version this knowledge comes from (0 = purely local)
    version_ts: int

    @property
    def exists(self) -> bool:
        """Whether the cached knowledge says the document exists."""
        return self.data is not None


class LocalCache:
    """Documents known to this client, keyed by path."""

    def __init__(self) -> None:
        self._docs: dict[Path, CachedDocument] = {}

    def __len__(self) -> int:
        return sum(1 for doc in self._docs.values() if doc.exists)

    def get(self, path: Path) -> Optional[CachedDocument]:
        """The cached document (or tombstone), or None if unknown."""
        return self._docs.get(path)

    def record_document(self, path: Path, data: Optional[dict], version_ts: int) -> None:
        """Record server-provided knowledge about a document."""
        current = self._docs.get(path)
        if current is not None and current.version_ts > version_ts:
            return  # never regress to older knowledge
        self._docs[path] = CachedDocument(path, data, version_ts)

    def remove(self, path: Path) -> None:
        """Forget a document entirely."""
        self._docs.pop(path, None)

    def run_query(self, normalized: NormalizedQuery) -> list[CachedDocument]:
        """Answer a query from cached documents, in query order."""
        matches = [
            doc
            for doc in self._docs.values()
            if doc.exists
            and document_matches_query(normalized, doc.path, doc.data)
        ]
        key = query_order_key(normalized)
        matches.sort(key=lambda doc: key((doc.path, doc.data)))
        query = normalized.query
        if query.offset:
            matches = matches[query.offset :]
        if query.limit is not None:
            matches = matches[: query.limit]
        return matches

    def all_documents(self) -> list[CachedDocument]:
        """Every cached document, including tombstones."""
        return list(self._docs.values())

    def clear(self) -> None:
        """Drop all cached documents."""
        self._docs.clear()
