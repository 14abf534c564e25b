"""The Firestore service: multi-tenant databases over shared Spanner.

A :class:`FirestoreService` models one region (or multi-region) of the
offering: it owns "a small number of pre-initialized Spanner databases"
and maps each customer database to a directory in one of them (paper
section IV-D1). :class:`FirestoreDatabase` is the per-database handle
bundling the layout, index registry, Backend, Real-time Cache, rules, and
admin operations — the object examples and tests interact with.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.errors import AlreadyExists, InvalidArgument, NotFound
from repro.replication import ReplicaGroup
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel, MultiRegionalLatency, RegionalLatency
from repro.sim.truetime import TrueTime
from repro.spanner.database import SpannerDatabase
from repro.spanner.splitting import LoadBasedSplitter
from repro.core.backend import (
    AuthContext,
    Backend,
    Precondition,
    WriteOp,
    create_op,
    delete_op,
    set_op,
    update_op,
)
from repro.core.backfill import BackfillStats, IndexBackfillService
from repro.core.document import DocumentSnapshot
from repro.core.executor import QueryResult
from repro.core.indexes import IndexDefinition, IndexField, IndexRegistry
from repro.core.layout import DatabaseLayout
from repro.core.path import Path, collection_path
from repro.core.query import Query
from repro.core.transaction import TransactionContext, run_transaction
from repro.core.triggers import CloudFunctionsRuntime, TriggerEvent
from repro.realtime.cache import RealtimeCache
from repro.realtime.frontend import Frontend, RealtimeConnection

#: Spanner databases pre-initialized per region ("a small number").
SPANNER_DATABASES_PER_REGION = 4


class FirestoreService:
    """One region's (or multi-region's) Firestore deployment."""

    def __init__(
        self,
        region: str = "nam5",
        multi_region: bool = True,
        clock: Optional[SimClock] = None,
        tracer=None,
        metrics=None,
        profiler=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        self.region = region
        self.multi_region = multi_region
        self.clock = clock if clock is not None else SimClock()
        self.truetime = TrueTime(self.clock)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: optional repro.obs.perf.Profiler, propagated to every Spanner
        #: database and (through them) the functional commit path
        self.profiler = profiler
        self.latency: LatencyModel = (
            MultiRegionalLatency() if multi_region else RegionalLatency()
        )
        self.spanner_databases = [
            SpannerDatabase(
                name=f"{region}-spanner-{i}", clock=self.clock, truetime=self.truetime
            )
            for i in range(SPANNER_DATABASES_PER_REGION)
        ]
        for i, spanner in enumerate(self.spanner_databases):
            spanner.tracer = self.tracer
            spanner.metrics = metrics
            spanner.profiler = profiler
            # every Spanner database is a geo-replica group over the
            # deployment's topology: quorum commit, leases, failover
            if self.latency.topology is not None:
                spanner.replication = ReplicaGroup(
                    name=spanner.name,
                    clock=self.clock,
                    topology=self.latency.topology,
                    seed=i,
                    metrics=metrics,
                    host=spanner,
                )
        self.splitters = [
            LoadBasedSplitter(db, metrics=metrics)
            for db in self.spanner_databases
        ]
        self._databases: dict[str, FirestoreDatabase] = {}
        self._placements: dict[str, tuple[SpannerDatabase, int]] = {}
        self._directory_numbers = itertools.count(1)

    def create_database(self, database_id: str) -> "FirestoreDatabase":
        """Initialize a new (empty) Firestore database.

        Serverless: this allocates a directory in a shared Spanner
        database and some bookkeeping — no capacity is provisioned, which
        is what makes idle databases nearly free (section IV-C).
        """
        if not database_id:
            raise InvalidArgument("database id must be non-empty")
        if database_id in self._databases:
            raise AlreadyExists(f"database {database_id!r} already exists")
        number = next(self._directory_numbers)
        spanner = self.spanner_databases[number % len(self.spanner_databases)]
        database = FirestoreDatabase(self, database_id, spanner, number)
        self._databases[database_id] = database
        self._placements[database_id] = (spanner, number)
        return database

    def reopen_database(self, database_id: str) -> "FirestoreDatabase":
        """Simulate a serving-task restart: build a fresh handle over the
        same directory, recovering indexes/exemptions/rules from the
        durable Metadata table through the Metadata Cache."""
        placement = self._placements.get(database_id)
        if placement is None:
            raise NotFound(f"no such database: {database_id!r}")
        spanner, number = placement
        database = FirestoreDatabase(self, database_id, spanner, number)
        self._databases[database_id] = database
        return database

    def database(self, database_id: str) -> "FirestoreDatabase":
        """Look up an existing database handle by id."""
        database = self._databases.get(database_id)
        if database is None:
            raise NotFound(f"no such database: {database_id!r}")
        return database

    @property
    def database_count(self) -> int:
        """Number of databases created in this service."""
        return len(self._databases)

    def run_maintenance(self) -> int:
        """Background upkeep: tablet splitting/merging and version GC."""
        changes = sum(splitter.run_once() for splitter in self.splitters)
        for spanner in self.spanner_databases:
            spanner.gc()
        return changes


class WriteBatch:
    """Up to 500 blind writes committed atomically (the SDKs' batch API).

    Unlike a transaction, a batch performs no reads, so it cannot
    conflict on read locks — only on concurrent writers of the same
    documents.
    """

    MAX_WRITES = 500

    def __init__(self, database: "FirestoreDatabase"):
        self._database = database
        self._writes: list[WriteOp] = []
        self._committed = False

    def _add(self, op: WriteOp) -> "WriteBatch":
        if self._committed:
            raise InvalidArgument("batch already committed")
        if len(self._writes) >= self.MAX_WRITES:
            raise InvalidArgument(f"a batch holds at most {self.MAX_WRITES} writes")
        self._writes.append(op)
        return self

    def set(self, path, data: dict) -> "WriteBatch":
        """Queue a create-or-replace write."""
        return self._add(set_op(path, data))

    def create(self, path, data: dict) -> "WriteBatch":
        """Queue a must-not-exist write."""
        return self._add(create_op(path, data))

    def update(
        self, path, data: dict, delete_fields: tuple[str, ...] = ()
    ) -> "WriteBatch":
        """Queue a field-merge write."""
        return self._add(update_op(path, data, delete_fields))

    def delete(self, path, precondition: Precondition = Precondition()) -> "WriteBatch":
        """Queue a deletion."""
        return self._add(delete_op(path, precondition))

    def __len__(self) -> int:
        return len(self._writes)

    def commit(self, auth: Optional[AuthContext] = None):
        """Apply every queued write atomically."""
        if self._committed:
            raise InvalidArgument("batch already committed")
        self._committed = True
        return self._database.commit(self._writes, auth=auth)


class FirestoreDatabase:
    """A customer database: the primary public handle."""

    def __init__(
        self,
        service: FirestoreService,
        database_id: str,
        spanner: SpannerDatabase,
        directory_number: int,
    ):
        from repro.core.metadata import MetadataCache, MetadataStore

        self.service = service
        self.database_id = database_id
        self.layout = DatabaseLayout(spanner, directory_number, database_id)
        # metadata (indexes, exemptions, rules) is durable in the
        # directory's Metadata table, read through the Metadata Cache
        self.metadata = MetadataCache(MetadataStore(self.layout), service.clock)
        recovered = self.metadata.store.load_registry()
        self.registry = recovered if recovered is not None else IndexRegistry()
        self.realtime = RealtimeCache(
            service.clock, tracer=service.tracer, metrics=service.metrics
        )
        # the delivery path reports into the same execution history as
        # the transactions it mirrors (repro.check; None when disabled)
        self.realtime.changelog.recorder = spanner.recorder
        # and into the same profiler ledger (repro.obs.perf; staleness
        # SLO feeding is wired separately by the chaos/bench runners)
        self.realtime.changelog.profiler = spanner.profiler
        self.backend = Backend(
            self.layout,
            self.registry,
            realtime=self.realtime,
            tracer=service.tracer,
        )
        rules_source = self.metadata.store.load_rules()
        if rules_source is not None:
            from repro.rules import compile_rules

            self.backend.rules = compile_rules(rules_source)
        self.backfill_service = IndexBackfillService(self.layout, self.registry)
        self.functions = CloudFunctionsRuntime(spanner.message_queue)
        self._frontend = self.realtime.create_frontend(self.backend)
        self._next_client_id = 1

    def allocate_client_id(self) -> str:
        """A fresh device id, allocated in deterministic order.

        Client SDK instances use this to mint idempotency tokens
        (``<client_id>:<mutation_id>``) that are unique across devices of
        the same database, so retried flushes dedup server-side.
        """
        client_id = f"client-{self._next_client_id}"
        self._next_client_id += 1
        return client_id

    # -- data plane ---------------------------------------------------------------

    def commit(
        self,
        writes: list[WriteOp],
        auth: Optional[AuthContext] = None,
        deadline_us: Optional[int] = None,
        idempotency_token: Optional[str] = None,
    ):
        """Commit writes atomically; persists any new index metadata.

        ``deadline_us`` and ``idempotency_token`` pass through to the
        Backend's write protocol (deadline-aware step boundaries, commit
        dedup for safe retry — see :meth:`repro.core.backend.Backend.commit`).
        """
        outcome = self.backend.commit(
            writes,
            auth=auth,
            deadline_us=deadline_us,
            idempotency_token=idempotency_token,
        )
        self._persist_metadata_if_changed()
        return outcome

    def _persist_metadata_if_changed(self) -> None:
        """Write-through the registry when a commit allocated new
        automatic indexes — their ids must survive task restarts, since
        IndexEntries rows already reference them."""
        if self.registry.version != getattr(self, "_persisted_version", -1):
            self.metadata.persist_registry(self.registry)
            self._persisted_version = self.registry.version

    def lookup(
        self, path: str | Path, auth: Optional[AuthContext] = None
    ) -> DocumentSnapshot:
        """Read one document, strongly consistent."""
        return self.backend.lookup(path, auth=auth)

    def run_query(
        self, query: Query, auth: Optional[AuthContext] = None, **kwargs
    ) -> QueryResult:
        """Execute a query, strongly consistent by default."""
        return self.backend.run_query(query, auth=auth, **kwargs)

    def query(self, collection: str | Path) -> Query:
        """Start building a query over a collection."""
        parent = collection if isinstance(collection, Path) else Path.parse(collection)
        return Query(parent=collection_path(parent))

    def gql(self, source: str) -> Query:
        """Compile a GQL/SQL-style query string (paper section IV-D3
        writes its examples in this syntax)."""
        from repro.core.gql import parse_gql

        return parse_gql(source)

    def run_count(self, query: Query, **kwargs) -> tuple[int, int]:
        """COUNT aggregation; returns (count, rows_examined)."""
        return self.backend.run_count(query, **kwargs)

    def validate(self):
        """Run the periodic data-validation job (paper section VI)."""
        from repro.core.validation import DataValidator

        return DataValidator(self.layout, self.registry).run()

    def run_transaction(self, fn: Callable[[TransactionContext], object], **kwargs):
        """Run ``fn`` transactionally with automatic retry."""
        return run_transaction(self.backend, fn, **kwargs)

    def batch(self) -> "WriteBatch":
        """Start an atomic batch of blind writes (no reads, one commit)."""
        return WriteBatch(self)

    # -- real-time ------------------------------------------------------------------

    def connect(self) -> RealtimeConnection:
        """Open a long-lived connection for real-time queries."""
        return self._frontend.connect()

    @property
    def frontend(self) -> Frontend:
        """This database's real-time Frontend task."""
        return self._frontend

    def pump_realtime(self) -> int:
        """Drive one Changelog heartbeat + snapshot delivery tick."""
        return self.realtime.pump()

    # -- admin: indexes ---------------------------------------------------------------

    def create_index(
        self, collection_group: str, fields: list[tuple[str, str]] | list[IndexField]
    ) -> IndexDefinition:
        """Define a composite index and backfill it to READY.

        Production runs the backfill asynchronously; here it completes
        inline (use ``registry.create_composite`` + ``backfill_service``
        directly to observe intermediate states).
        """
        definition = self.registry.create_composite(collection_group, fields)
        self.backfill_service.backfill(definition.index_id)
        self._persist_metadata_if_changed()
        return self.registry.get(definition.index_id)

    def drop_index(self, index_id: int) -> BackfillStats:
        """Backremove a composite index and drop its definition."""
        stats = self.backfill_service.backremove(index_id)
        self._persist_metadata_if_changed()
        return stats

    def exempt_field(self, collection_group: str, field_path: str) -> BackfillStats:
        """Exclude a field from automatic indexing and back-remove its
        existing entries (paper section III-B)."""
        self.registry.add_exemption(collection_group, field_path)
        stats = self.backfill_service.apply_exemption(collection_group, field_path)
        self._persist_metadata_if_changed()
        return stats

    # -- admin: security rules -----------------------------------------------------------

    def set_rules(self, source: str) -> None:
        """Compile and install a security ruleset for third-party access.

        The source is persisted to the Metadata table, so rules survive
        task restarts (see :meth:`FirestoreService.reopen_database`).
        """
        from repro.rules import compile_rules

        self.backend.rules = compile_rules(source)  # validate before persisting
        self.metadata.persist_rules(source)

    def clear_rules(self) -> None:
        """Remove the ruleset (third-party access denied again)."""
        self.backend.rules = None
        self.metadata.persist_rules(None)

    # -- admin: triggers ------------------------------------------------------------------

    def register_trigger(
        self, collection_group: str, handler: Callable[[TriggerEvent], None]
    ) -> str:
        """Wire a handler to changes in a collection group."""
        return self.functions.register(self.backend, collection_group, handler)

    def deliver_triggers(self) -> int:
        """Drain queued trigger messages to their handlers."""
        return self.functions.deliver_pending()

    # -- stats -----------------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Approximate stored bytes for this database's directory."""
        from repro.core.layout import ENTITIES

        start, end = self.layout.directory_range()
        read_ts = self.layout.spanner.current_timestamp()
        total = 0
        for key, row in self.layout.spanner.snapshot_scan(ENTITIES, start, end, read_ts):
            total += len(key) + len(row.data)
        return total

    def document_count(self) -> int:
        """Number of live documents in this database."""
        from repro.core.layout import ENTITIES

        start, end = self.layout.directory_range()
        read_ts = self.layout.spanner.current_timestamp()
        return sum(
            1
            for _ in self.layout.spanner.snapshot_scan(ENTITIES, start, end, read_ts)
        )
