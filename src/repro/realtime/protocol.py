"""The Backend <-> Real-time Cache two-phase-commit protocol.

Paper section IV-D2, steps 5 and 7: before committing to Spanner the
Backend sends Prepare RPCs (carrying a maximum commit timestamp M) to the
Changelog tasks owning the affected document-name ranges; each responds
with a minimum allowed commit timestamp m. After the Spanner commit the
Backend sends Accept RPCs with the outcome — committed (with the full
mutations), failed, or unknown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.core.path import Path


class WriteOutcome(enum.Enum):
    """How a prepared commit resolved."""
    COMMITTED = "committed"
    FAILED = "failed"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class DocumentChange:
    """One document mutation, as delivered to the Real-time Cache.

    Carries both the old and new contents — "a full copy of each modified
    document together with the exact changes" — so the Query Matcher can
    match a query against the state before *and* after (a document
    leaving a result set matters as much as one entering it).
    """

    path: Path
    old_data: Optional[dict]  # None: the document did not exist
    new_data: Optional[dict]  # None: the document was deleted
    commit_ts: int = 0        # filled in by the Accept
    #: the document's creation timestamp; None when this commit creates it
    create_ts: Optional[int] = None

    def with_commit_ts(self, commit_ts: int) -> "DocumentChange":
        """A copy stamped with the commit timestamp."""
        return DocumentChange(
            self.path, self.old_data, self.new_data, commit_ts, self.create_ts
        )

    @property
    def is_delete(self) -> bool:
        """The document was removed."""
        return self.new_data is None


@dataclass(slots=True)
class PrepareHandle:
    """The Backend's token for an in-flight two-phase commit."""

    prepare_id: int
    min_commit_ts: int
    max_commit_ts: int


class RealtimeCacheInterface(Protocol):
    """What the Backend needs from the Real-time Cache."""

    def prepare(
        self, database_id: str, paths: list[Path], max_commit_ts: int
    ) -> PrepareHandle:
        """Step 5: announce an impending commit; returns min/max window.

        Raises :class:`repro.errors.Unavailable` if the cache cannot be
        reached — the Backend then fails the write (paper: "the write
        fails and an error is returned to the user").
        """
        ...

    def accept(
        self,
        database_id: str,
        handle: PrepareHandle,
        outcome: WriteOutcome,
        commit_ts: int,
        changes: list[DocumentChange],
    ) -> None:
        """Step 7: deliver the commit outcome and mutations."""
        ...


class NullRealtimeCache:
    """A no-op cache for databases with no real-time listeners.

    Also handy in unit tests of the write path.
    """

    def __init__(self) -> None:
        self.prepares = 0
        self.accepts: list[WriteOutcome] = []

    def prepare(
        self, database_id: str, paths: list[Path], max_commit_ts: int
    ) -> PrepareHandle:
        """No-op prepare (counts calls for tests)."""
        self.prepares += 1
        return PrepareHandle(self.prepares, 0, max_commit_ts)

    def accept(
        self,
        database_id: str,
        handle: PrepareHandle,
        outcome: WriteOutcome,
        commit_ts: int,
        changes: list[DocumentChange],
    ) -> None:
        """No-op accept (records outcomes for tests)."""
        self.accepts.append(outcome)
