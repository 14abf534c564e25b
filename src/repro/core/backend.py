"""The Firestore Backend: writes, lookups, queries, transactions.

This is the task that "translate[s] [RPCs] into requests to the
underlying, per-region Spanner databases" (paper section IV). The write
path is the seven-step commit protocol of section IV-D2, including the
two-phase commit with the Real-time Cache and the full failure matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    Aborted,
    AlreadyExists,
    CommitOutcomeUnknown,
    DeadlineExceeded,
    FailedPrecondition,
    InvalidArgument,
    NotFound,
    Unavailable,
)
from repro.core.document import (
    Document,
    DocumentSnapshot,
    check_document_size,
    deep_copy_data,
    validate_document_data,
)
from repro.core.executor import QueryExecutor, QueryResult
from repro.core.index_entries import compute_document_entries, diff_entries
from repro.core.indexes import IndexRegistry
from repro.core.layout import (
    COMMIT_LEDGER,
    ENTITIES,
    INDEX_ENTRIES,
    DatabaseLayout,
    EntityRow,
)
from repro.core.path import Path, document_path
from repro.core.planner import QueryPlanner
from repro.core.query import Query
from repro.core.serialization import deserialize_document, serialize_document
from repro.obs.perf import NULL_PROFILER
from repro.core.values import delete_field, get_field, set_field
from repro.obs.tracer import NULL_TRACER
from repro.realtime.protocol import (
    DocumentChange,
    NullRealtimeCache,
    RealtimeCacheInterface,
    WriteOutcome,
)

#: How far in the future the Backend allows a commit timestamp (the "max
#: commit timestamp M" of step 5). Bounds how long a Changelog waits.
MAX_COMMIT_HORIZON_US = 5_000_000


class WriteKind(enum.Enum):
    """The four mutation shapes of the commit API."""
    SET = "set"          # create or replace
    CREATE = "create"    # must not exist
    UPDATE = "update"    # must exist; merges field paths
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class Precondition:
    """An optional guard on a write."""

    exists: Optional[bool] = None
    update_time: Optional[int] = None


@dataclass(frozen=True, slots=True)
class WriteOp:
    """One document mutation in a commit request."""

    kind: WriteKind
    path: Path
    data: Optional[dict] = None
    #: for UPDATE: dotted field paths to delete
    delete_fields: tuple[str, ...] = ()
    precondition: Precondition = field(default_factory=Precondition)

    def __post_init__(self) -> None:
        document_path(self.path)
        if self.kind in (WriteKind.SET, WriteKind.CREATE, WriteKind.UPDATE):
            if self.data is None:
                raise InvalidArgument(f"{self.kind.value} requires data")
            validate_document_data(self.data)
        elif self.data is not None:
            raise InvalidArgument("delete takes no data")


def set_op(path: str | Path, data: dict) -> WriteOp:
    """Create-or-replace write for ``path``."""
    return WriteOp(WriteKind.SET, _as_path(path), data)


def create_op(path: str | Path, data: dict) -> WriteOp:
    """Write that requires the document to be absent."""
    return WriteOp(WriteKind.CREATE, _as_path(path), data)


def update_op(
    path: str | Path,
    data: dict,
    delete_fields: tuple[str, ...] = (),
    precondition: Precondition = Precondition(),
) -> WriteOp:
    """Field-merge write that requires the document to exist."""
    return WriteOp(
        WriteKind.UPDATE, _as_path(path), data, delete_fields, precondition
    )


def delete_op(path: str | Path, precondition: Precondition = Precondition()) -> WriteOp:
    """Deletion write (idempotent unless guarded by a precondition)."""
    return WriteOp(WriteKind.DELETE, _as_path(path), None, (), precondition)


def _as_path(path: str | Path) -> Path:
    return path if isinstance(path, Path) else Path.parse(path)


@dataclass(frozen=True)
class AuthContext:
    """Who is making a request.

    ``None`` auth on the Backend API means a privileged (Server SDK)
    caller; an AuthContext marks third-party (Mobile/Web SDK) traffic,
    which is subject to security rules. ``uid=None`` inside an
    AuthContext means an unauthenticated third party.
    """

    uid: Optional[str] = None
    token: dict = field(default_factory=dict)

    @property
    def is_authenticated(self) -> bool:
        """Whether a signed-in end user is attached."""
        return self.uid is not None


@dataclass(frozen=True, slots=True)
class CommitOutcomeResult:
    """What a successful commit reports back."""
    commit_ts: int
    write_count: int
    index_entries_written: int
    participants: int


@dataclass
class TriggerRegistration:
    """A write trigger: collection-group pattern -> handler topic."""

    collection_group: str
    topic: str


class Backend:
    """One Firestore database's backend logic.

    A production Backend task is stateless and multi-tenant; here the
    multi-tenancy lives in the serving simulation (`repro.service`) while
    this class holds the per-database logic against the shared Spanner.
    """

    def __init__(
        self,
        layout: DatabaseLayout,
        registry: Optional[IndexRegistry] = None,
        realtime: Optional[RealtimeCacheInterface] = None,
        rules=None,
        tracer=NULL_TRACER,
    ):
        self.layout = layout
        self.registry = registry if registry is not None else IndexRegistry()
        self.realtime: RealtimeCacheInterface = (
            realtime if realtime is not None else NullRealtimeCache()
        )
        self.rules = rules  # None = allow privileged only; see _check_rules
        self.planner = QueryPlanner(self.registry)
        self.executor = QueryExecutor(layout, tracer=tracer)
        self.triggers: list[TriggerRegistration] = []
        # observability
        self.tracer = tracer
        self.committed_writes = 0
        self.docs_read = 0

    # -- reads -------------------------------------------------------------------

    def lookup(
        self,
        path: str | Path,
        read_ts: Optional[int] = None,
        txn=None,
        auth: Optional[AuthContext] = None,
    ) -> DocumentSnapshot:
        """Read one document, strongly consistent by default."""
        doc_path = document_path(_as_path(path))
        if read_ts is None:
            read_ts = self.layout.spanner.current_timestamp()
        key = self.layout.entity_key(doc_path)
        if txn is not None:
            version = txn.read_versioned(ENTITIES, key)
        else:
            version = self.layout.spanner.snapshot_read_versioned(
                ENTITIES, key, read_ts
            )
        self.docs_read += 1
        document = None
        if version is not None:
            version_ts, row = version
            if not row.verify_checksum():
                from repro.errors import InternalError

                raise InternalError(
                    f"checksum mismatch reading {doc_path}: stored data is corrupt"
                )
            document = Document(
                doc_path,
                deserialize_document(row.data),
                row.resolve_create_ts(version_ts),
                version_ts,
            )
        if auth is not None:
            self._check_rules("get", doc_path, auth, document, None, txn, read_ts)
        return DocumentSnapshot(doc_path, document, read_ts)

    def run_query(
        self,
        query: Query,
        read_ts: Optional[int] = None,
        txn=None,
        auth: Optional[AuthContext] = None,
        max_work: Optional[int] = None,
        resume_token: Optional[bytes] = None,
    ) -> QueryResult:
        """Execute a query, strongly consistent by default.

        Third-party queries are authorized per returned document against
        the database's ``list`` rules (a simplification of production's
        static query-constraint analysis, documented in DESIGN.md).
        """
        normalized = query.normalize()
        with self.tracer.span(
            "backend.run_query",
            attributes={
                "database_id": self.layout.database_id,
                "operation": "query",
            },
        ) as span:
            plan = self.planner.plan(normalized)
            if read_ts is None:
                read_ts = self.layout.spanner.current_timestamp()
            result = self.executor.execute(
                plan, read_ts, txn=txn, max_work=max_work, resume_token=resume_token
            )
            self.docs_read += len(result.documents)
            if auth is not None:
                for doc in result.documents:
                    self._check_rules(
                        "list", doc.path, auth, doc, None, txn, read_ts
                    )
            recorder = self.layout.spanner.recorder
            if recorder is not None:
                entities = self.layout.spanner.table(ENTITIES)
                recorder.query_result(
                    self.layout.database_id,
                    read_ts,
                    [
                        (
                            entities.composite_key(
                                self.layout.entity_key(doc.path)
                            ).hex(),
                            doc.update_time,
                        )
                        for doc in result.documents
                    ],
                )
            span.set_attribute("documents", len(result.documents))
            span.set_attribute("plan", plan.kind)
            return result

    def run_count(
        self,
        query: Query,
        read_ts: Optional[int] = None,
        txn=None,
        max_work: Optional[int] = None,
    ) -> tuple[int, int]:
        """COUNT aggregation (paper section VIII, future work).

        Returns (count, rows_examined). Counting runs entirely on index
        entries — no document fetches — so its cost is the scan, which is
        exactly why the paper says such queries "cannot break the
        pay-as-you-go billing": the caller is billed for rows examined,
        not result size. Privileged (Server SDK) callers only: per-
        document rule evaluation is incompatible with fetch-free counting.
        """
        normalized = query.normalize()
        plan = self.planner.plan(normalized)
        if read_ts is None:
            read_ts = self.layout.spanner.current_timestamp()
        return self.executor.count(plan, read_ts, txn=txn, max_work=max_work)

    # -- the seven-step write protocol ----------------------------------------------

    def commit(
        self,
        writes: list[WriteOp],
        auth: Optional[AuthContext] = None,
        txn=None,
        deadline_us: Optional[int] = None,
        idempotency_token: Optional[str] = None,
    ) -> CommitOutcomeResult:
        """Commit a set of writes atomically (paper section IV-D2).

        When ``txn`` is given the writes join an ongoing Firestore
        transaction's Spanner transaction (its reads already hold locks).

        ``deadline_us`` (absolute sim time) lets the commit expire at the
        safe abandon points — before step 5 (Prepare) and before step 6
        (the Spanner commit). Past step 6 an outcome exists and the
        protocol *must* run step 7 (Accept), deadline or not, or the
        Real-time Cache would be left waiting for a prepare forever.

        ``idempotency_token`` makes the commit retry-safe: the token is
        recorded in the directory's CommitLedger row inside the same
        Spanner transaction, so a retry after an unknown outcome either
        finds the row (first attempt applied — the recorded result is
        replayed, nothing applies twice) or commits fresh.
        """
        if not writes:
            raise InvalidArgument("commit requires at least one write")
        if (
            deadline_us is not None
            and self.layout.spanner.clock.now_us >= deadline_us
        ):
            raise DeadlineExceeded("deadline expired before commit began")
        paths = [w.path for w in writes]

        # duck-typed profiler (like recorder/fault_plan on the Spanner
        # side): the whole seven-step protocol, fault stalls included,
        # lands under core/backend.commit for this tenant
        profiler = self.layout.spanner.profiler or NULL_PROFILER
        with profiler.measure(
            "core",
            "backend.commit",
            self.layout.spanner.clock,
            self.layout.database_id,
        ), self.tracer.span(
            "backend.commit",
            attributes={
                "database_id": self.layout.database_id,
                "operation": "commit",
                "writes": len(writes),
            },
        ) as commit_span:
            own_txn = txn is None
            spanner = self.layout.spanner
            if own_txn:
                txn = spanner.begin()  # step 1
                commit_span.add_event("txn.begin", {"step": 1})
            try:
                if idempotency_token is not None:
                    replayed = self._check_commit_ledger(
                        txn, idempotency_token, writes
                    )
                    if replayed is not None:
                        # this token already committed: return the
                        # recorded outcome instead of applying twice
                        if own_txn:
                            txn.rollback()
                        commit_span.set_attribute("replayed", True)
                        return replayed
                with self.tracer.span(
                    "backend.stage_writes", attributes={"steps": "2-4"}
                ):
                    changes = self._stage_writes(txn, writes, auth)  # steps 2-4
                if idempotency_token is not None:
                    staged = txn.pending_writes
                    txn.put(
                        COMMIT_LEDGER,
                        self.layout.ledger_key(idempotency_token),
                        {"w": len(writes), "i": max(0, staged - len(writes))},
                    )
            except BaseException:
                if own_txn:
                    txn.rollback()
                raise

            # deadline: last safe abandon point before step 5 — nothing
            # is visible yet, so an expired budget can just roll back
            if deadline_us is not None and spanner.clock.now_us >= deadline_us:
                if own_txn or txn.is_active:
                    txn.rollback()
                raise DeadlineExceeded(
                    "deadline expired before prepare (step 5)"
                )

            # step 5: Prepare with the Real-time Cache
            max_ts = spanner.truetime.now().latest + MAX_COMMIT_HORIZON_US
            try:
                with self.tracer.span(
                    "rtc.prepare", component="realtime", attributes={"step": 5}
                ):
                    handle = self.realtime.prepare(
                        self.layout.database_id, paths, max_ts
                    )
            except Unavailable:
                if own_txn or txn.is_active:
                    txn.rollback()
                raise
            recorder = spanner.recorder
            if recorder is not None:
                recorder.backend_prepare(
                    self.layout.database_id,
                    handle.prepare_id,
                    handle.min_commit_ts,
                    max_ts,
                    [str(p) for p in paths],
                )

            # deadline: last abandon point before step 6 — the prepare
            # must be resolved (Accept FAILED) so the Changelog does not
            # wait out its timeout and trip the out-of-sync fail-safe
            if deadline_us is not None and spanner.clock.now_us >= deadline_us:
                with self.tracer.span(
                    "rtc.accept",
                    component="realtime",
                    attributes={"step": 7, "outcome": "failed"},
                ):
                    self.realtime.accept(
                        self.layout.database_id, handle, WriteOutcome.FAILED, 0, []
                    )
                if recorder is not None:
                    recorder.backend_accept(
                        self.layout.database_id, handle.prepare_id, "failed", 0, []
                    )
                if own_txn or txn.is_active:
                    txn.rollback()
                raise DeadlineExceeded(
                    "deadline expired before Spanner commit (step 6)"
                )

            # step 6: Spanner commit within [m, M]
            try:
                with self.tracer.span(
                    "spanner.commit", component="spanner", attributes={"step": 6}
                ):
                    result = txn.commit(
                        min_commit_ts=handle.min_commit_ts, max_commit_ts=max_ts
                    )
            except Aborted:
                with self.tracer.span(
                    "rtc.accept",
                    component="realtime",
                    attributes={"step": 7, "outcome": "failed"},
                ):
                    self.realtime.accept(
                        self.layout.database_id, handle, WriteOutcome.FAILED, 0, []
                    )
                if recorder is not None:
                    recorder.backend_accept(
                        self.layout.database_id, handle.prepare_id, "failed", 0, []
                    )
                raise
            except CommitOutcomeUnknown:
                with self.tracer.span(
                    "rtc.accept",
                    component="realtime",
                    attributes={"step": 7, "outcome": "unknown"},
                ):
                    self.realtime.accept(
                        self.layout.database_id, handle, WriteOutcome.UNKNOWN, 0, []
                    )
                if recorder is not None:
                    recorder.backend_accept(
                        self.layout.database_id, handle.prepare_id, "unknown", 0, []
                    )
                raise DeadlineExceeded(
                    "commit outcome unknown; the write may or may not be applied"
                )

            # step 7: Accept with the committed mutations
            stamped = [c.with_commit_ts(result.commit_ts) for c in changes]
            with self.tracer.span(
                "rtc.accept",
                component="realtime",
                attributes={"step": 7, "outcome": "committed"},
            ):
                self.realtime.accept(
                    self.layout.database_id,
                    handle,
                    WriteOutcome.COMMITTED,
                    result.commit_ts,
                    stamped,
                )
            if recorder is not None:
                recorder.backend_accept(
                    self.layout.database_id,
                    handle.prepare_id,
                    "committed",
                    result.commit_ts,
                    [str(p) for p in paths],
                )
            self.committed_writes += len(writes)
            commit_span.set_attribute("commit_ts", result.commit_ts)
            commit_span.set_attribute("participants", result.participants)
            return CommitOutcomeResult(
                commit_ts=result.commit_ts,
                write_count=len(writes),
                index_entries_written=result.mutation_count - len(writes),
                participants=result.participants,
            )

    def _check_commit_ledger(
        self, txn, token: str, writes: list[WriteOp]
    ) -> Optional[CommitOutcomeResult]:
        """Idempotent-retry dedup: return the recorded outcome for
        ``token`` if a previous attempt already committed, else None.

        The ledger row is read under an exclusive lock, so two concurrent
        retries of the same token serialize; the row's version timestamp
        *is* the original commit timestamp because the row was written in
        the same Spanner transaction as the data. Replayed results carry
        the original commit_ts and write count; index/participant counts
        are the staged approximations recorded at write time.
        """
        key = self.layout.ledger_key(token)
        existing = txn.read_versioned(COMMIT_LEDGER, key, for_update=True)
        if existing is None:
            return None
        commit_ts, row = existing
        return CommitOutcomeResult(
            commit_ts=commit_ts,
            write_count=row.get("w", len(writes)),
            index_entries_written=row.get("i", 0),
            participants=row.get("p", 1),
        )

    def _stage_writes(
        self, txn, writes: list[WriteOp], auth: Optional[AuthContext]
    ) -> list[DocumentChange]:
        """Steps 2-4: read+verify, authorize, buffer entity+index mutations."""
        changes: list[DocumentChange] = []
        for write in writes:
            key = self.layout.entity_key(write.path)
            existing = txn.read_versioned(ENTITIES, key, for_update=True)  # step 2
            old_data: Optional[dict] = None
            create_ts: Optional[int] = None
            if existing is not None:
                version_ts, row = existing
                old_data = deserialize_document(row.data)
                # version_ts 0 means the row is this commit's own buffered
                # write (later writes to the same document in one commit):
                # its creation timestamp is still pending assignment
                create_ts = (
                    row.resolve_create_ts(version_ts) if version_ts else row.create_ts
                )
            self._check_precondition(write, existing)
            new_data = self._apply_write(write, old_data)

            if auth is not None:  # step 3
                method = self._rules_method(write, old_data)
                old_doc = (
                    Document(write.path, old_data, create_ts or 0, 0)
                    if old_data is not None
                    else None
                )
                new_doc = (
                    Document(write.path, new_data, 0, 0)
                    if new_data is not None
                    else None
                )
                self._check_rules(method, write.path, auth, old_doc, new_doc, txn, None)

            # step 4: index entry diff
            old_entries = (
                compute_document_entries(self.registry, write.path, old_data)
                if old_data is not None
                else {}
            )
            new_entries = (
                compute_document_entries(self.registry, write.path, new_data)
                if new_data is not None
                else {}
            )
            to_delete, to_insert = diff_entries(old_entries, new_entries)
            for entry_key in to_delete:
                txn.delete(INDEX_ENTRIES, self.layout.index_key(entry_key))
            for entry_key, payload in to_insert:
                txn.put(INDEX_ENTRIES, self.layout.index_key(entry_key), payload)

            if new_data is None:
                txn.delete(ENTITIES, key)
            else:
                serialized = serialize_document(new_data)
                check_document_size(write.path, serialized)
                txn.put(ENTITIES, key, EntityRow(serialized, create_ts))

            change = DocumentChange(write.path, old_data, new_data, create_ts=create_ts)
            changes.append(change)
            self._stage_triggers(txn, change)
        return changes

    def _check_precondition(self, write: WriteOp, existing) -> None:
        exists = existing is not None
        if write.kind is WriteKind.CREATE and exists:
            raise AlreadyExists(f"document {write.path} already exists")
        if write.kind is WriteKind.UPDATE and not exists:
            raise NotFound(f"document {write.path} does not exist")
        pre = write.precondition
        if pre.exists is not None and pre.exists != exists:
            raise FailedPrecondition(
                f"precondition exists={pre.exists} failed for {write.path}"
            )
        if pre.update_time is not None:
            if not exists or existing[0] != pre.update_time:
                raise FailedPrecondition(
                    f"precondition update_time={pre.update_time} failed "
                    f"for {write.path}"
                )

    def _apply_write(
        self, write: WriteOp, old_data: Optional[dict]
    ) -> Optional[dict]:
        if write.kind is WriteKind.DELETE:
            return None
        if write.kind in (WriteKind.SET, WriteKind.CREATE):
            return self._apply_transforms(deep_copy_data(write.data), old_data)
        # UPDATE: merge dotted field paths into the existing document
        merged = deep_copy_data(old_data) if old_data else {}
        assert write.data is not None
        for dotted, value in _flatten_update(write.data):
            set_field(merged, dotted, value)
        for dotted in write.delete_fields:
            delete_field(merged, dotted)
        return self._apply_transforms(merged, old_data)

    def _apply_transforms(self, data, old_data: Optional[dict]):
        """Resolve SERVER_TIMESTAMP and field transforms at commit time.

        Transforms (increment, array union/remove) resolve against the
        field's previous value in the stored document.
        """
        from repro.core.values import (
            SERVER_TIMESTAMP,
            FieldTransform,
            Timestamp,
            apply_transform,
        )

        now = Timestamp(self.layout.spanner.truetime.now().latest)
        old = old_data if old_data is not None else {}

        def walk(node, dotted: str):
            if node is SERVER_TIMESTAMP:
                return now
            if isinstance(node, FieldTransform):
                _, base = get_field(old, dotted) if dotted else (False, None)
                return apply_transform(node, base)
            if isinstance(node, dict):
                return {
                    key: walk(value, f"{dotted}.{key}" if dotted else key)
                    for key, value in node.items()
                }
            if isinstance(node, list):
                return [walk(item, dotted) for item in node]
            return node

        return walk(data, "")

    def _rules_method(self, write: WriteOp, old_data: Optional[dict]) -> str:
        if write.kind is WriteKind.DELETE:
            return "delete"
        if write.kind is WriteKind.CREATE or old_data is None:
            return "create"
        return "update"

    def _check_rules(
        self,
        method: str,
        path: Path,
        auth: AuthContext,
        resource: Optional[Document],
        new_resource: Optional[Document],
        txn,
        read_ts: Optional[int],
    ) -> None:
        """Step 3: execute the database's security rules.

        With no ruleset configured, third-party access is denied entirely
        (the production default for a locked-down database).
        """
        from repro.errors import PermissionDenied

        if self.rules is None:
            raise PermissionDenied(
                f"no security rules allow {method} on {path} for third parties"
            )
        reader = _RulesReader(self, txn, read_ts)
        self.rules.authorize(
            method=method,
            path=path,
            auth=auth,
            resource=resource,
            new_resource=new_resource,
            reader=reader,
            database_id=self.layout.database_id,
            now_us=self.layout.spanner.truetime.now().latest,
        )

    # -- triggers ---------------------------------------------------------------------

    def register_trigger(self, collection_group: str, topic: str) -> None:
        """Route changes in a collection group to a message topic
        (delivered asynchronously to Cloud-Functions-style handlers)."""
        self.triggers.append(TriggerRegistration(collection_group, topic))

    def _stage_triggers(self, txn, change: DocumentChange) -> None:
        parent = change.path.parent()
        group = parent.id if parent is not None else ""
        for trigger in self.triggers:
            if trigger.collection_group == group:
                txn.enqueue_message(
                    trigger.topic,
                    {
                        "path": str(change.path),
                        "old_data": change.old_data,
                        "new_data": change.new_data,
                    },
                )


class _RulesReader:
    """Transactionally-consistent document reads for rule ``get()`` calls.

    "These additional document lookups are executed in a transactionally-
    consistent fashion with the operation being authorized" (section
    III-E): inside a write they read through the write's transaction;
    for reads they use the same snapshot timestamp.
    """

    __slots__ = ("_backend", "_txn", "_read_ts")

    def __init__(self, backend: Backend, txn, read_ts: Optional[int]):
        self._backend = backend
        self._txn = txn
        self._read_ts = read_ts

    def get(self, path: Path) -> Optional[Document]:
        snapshot = self._backend.lookup(
            path, read_ts=self._read_ts, txn=self._txn, auth=None
        )
        return snapshot.document

    def exists(self, path: Path) -> bool:
        return self.get(path) is not None


def _flatten_update(data: dict, prefix: str = ""):
    """Update data maps dotted keys directly; nested dicts merge deeply."""
    for key, value in data.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict) and value:
            yield from _flatten_update(value, dotted)
        else:
            yield dotted, value
