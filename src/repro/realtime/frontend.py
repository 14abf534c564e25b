"""Frontend tasks: long-lived connections and consistent snapshots.

The Frontend (paper section IV-D4):

- serves each new real-time query's initial snapshot through the Backend,
- subscribes to the Query Matcher tasks owning the covering ranges,
- "is responsible for tracking when it has received all the updates
  necessary to reach a consistent timestamp" across those ranges, and
  only then ships the accumulated delta as an incremental snapshot,
- keeps the *multiple* queries multiplexed on one connection mutually
  consistent: "queries on the same connection are only updated to a
  timestamp t once all queries' max-commit-version has reached at least
  t",
- and on an out-of-sync signal "aborts all accumulated state for that
  query and redoes the steps starting with the initial query request".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from typing import TYPE_CHECKING

from repro.core.document import Document
from repro.core.path import Path
from repro.core.query import NormalizedQuery, Query
from repro.core.values import compare_values, get_field
from repro.realtime.matcher import QueryMatcher, Subscription, document_matches_query
from repro.realtime.protocol import DocumentChange

if TYPE_CHECKING:  # circular at runtime: the Backend drives this module
    from repro.core.backend import Backend


@dataclass(frozen=True)
class SnapshotDelta:
    """One incremental snapshot for one query."""

    query_tag: Any
    read_ts: int
    added: tuple[Document, ...]
    modified: tuple[Document, ...]
    removed: tuple[Path, ...]
    #: the full result, in query order, at read_ts
    documents: tuple[Document, ...]
    #: True for the first snapshot and after each reset
    is_initial: bool = False

    @property
    def is_empty(self) -> bool:
        """True when nothing changed in this snapshot."""
        return not (self.added or self.modified or self.removed)


def _delta_paths(delta: SnapshotDelta) -> list[str]:
    """Every document path a snapshot delta touched, for the history log."""
    return [
        str(doc.path) for doc in delta.added + delta.modified
    ] + [str(path) for path in delta.removed]


def query_order_key(normalized: NormalizedQuery):
    """A sort key over (path, data) pairs matching the query's order."""

    def cmp(a: tuple[Path, dict], b: tuple[Path, dict]) -> int:
        for order in normalized.core_orders:
            _, va = get_field(a[1], order.field_path)
            _, vb = get_field(b[1], order.field_path)
            result = compare_values(va, vb)
            if result:
                return result if order.direction == "asc" else -result
        if a[0] == b[0]:
            return 0
        result = -1 if a[0] < b[0] else 1
        return result if normalized.name_direction == "asc" else -result

    return functools.cmp_to_key(cmp)


class _QueryState:
    """Frontend-side state for one registered real-time query."""

    def __init__(self, tag: Any, query: Query, on_snapshot: Callable[[SnapshotDelta], None]):
        self.tag = tag
        #: run-deterministic listener identity for recorded histories
        #: ("<connection>.<tag>"); the API-visible tag is per-connection
        self.record_tag = str(tag)
        self.query = query
        self.normalized = query.normalize()
        self.on_snapshot = on_snapshot
        self.subscription: Optional[Subscription] = None
        #: current result contents: path -> (data, update_ts, create_ts)
        self.result: dict[Path, tuple[dict, int, int]] = {}
        self.max_commit_version = 0
        self.pending: list[tuple[int, DocumentChange]] = []
        self.range_watermarks: dict[int, int] = {}
        self.needs_reset = False
        #: the last delivered ``documents``, in query order
        self.documents: tuple[Document, ...] = ()

    def consistent_ts(self) -> int:
        if not self.range_watermarks:
            return self.max_commit_version
        return min(self.range_watermarks.values())


class RealtimeConnection:
    """One client's long-lived connection, multiplexing its queries."""

    def __init__(self, frontend: "Frontend", conn_id: int = 0):
        self._frontend = frontend
        self._conn_id = conn_id
        # per-connection, not process-global: auto-assigned tags must be
        # a function of this run alone so recorded histories replay
        # byte-identically from the same seed
        self._tags = itertools.count(1)
        self._states: dict[Any, _QueryState] = {}
        self._emitted_ts = 0
        self.closed = False

    # -- client API ----------------------------------------------------------------

    def listen(
        self,
        query: Query,
        on_snapshot: Callable[[SnapshotDelta], None],
        tag: Any = None,
    ) -> Any:
        """Register a real-time query; the initial snapshot is delivered
        synchronously, subsequent deltas on :meth:`Frontend.pump`."""
        if tag is None:
            tag = next(self._tags)
        state = _QueryState(tag, query, on_snapshot)
        # tags are only unique per connection; histories need a
        # run-deterministic identity unique per listener
        state.record_tag = f"{self._conn_id}.{tag}"
        self._states[tag] = state
        self._frontend._start_query(state)
        return tag

    def unlisten(self, tag: Any) -> None:
        """Deregister one query from this connection."""
        state = self._states.pop(tag, None)
        if state is not None and state.subscription is not None:
            self._frontend.matcher.unsubscribe(state.subscription.subscription_id)

    def close(self) -> None:
        """Tear the connection down, dropping all queries."""
        for tag in list(self._states):
            self.unlisten(tag)
        self.closed = True
        self._frontend._connections.pop(self, None)

    @property
    def query_count(self) -> int:
        """Queries multiplexed on this connection."""
        return len(self._states)

    # -- consistency-tracked emission --------------------------------------------------

    def _pump(self) -> int:
        """Handle resets, then emit consistent snapshots. Returns count."""
        emitted = 0
        for state in list(self._states.values()):
            if state.needs_reset:
                self._frontend._reset_query(state)
                emitted += 1
        if not self._states:
            return emitted
        target = min(s.consistent_ts() for s in self._states.values())
        if target <= self._emitted_ts:
            return emitted
        self._emitted_ts = target
        tracer = self._frontend.tracer
        for state in self._states.values():
            if target <= state.max_commit_version:
                continue
            if not state.pending or all(ts > target for ts, _ in state.pending):
                # a bystander: nothing is ready, only the version advances
                state.max_commit_version = target
                continue
            delta = self._frontend._apply_pending(state, target)
            if delta is not None and not delta.is_empty:
                with tracer.span(
                    "listener.notify",
                    component="frontend",
                    attributes={
                        "read_ts": delta.read_ts,
                        "added": len(delta.added),
                        "modified": len(delta.modified),
                        "removed": len(delta.removed),
                    }
                    if tracer
                    else None,
                ):
                    state.on_snapshot(delta)
                recorder = self._frontend.recorder
                if recorder is not None:
                    recorder.notify(
                        state.record_tag,
                        delta.read_ts,
                        False,
                        _delta_paths(delta),
                    )
                emitted += 1
        return emitted


class Frontend:
    """One Frontend task serving real-time connections for a database."""

    def __init__(self, backend: Backend, matcher: QueryMatcher, tracer=None):
        from repro.obs.tracer import NULL_TRACER

        self.backend = backend
        self.matcher = matcher
        # insertion-ordered, so delivery order is connect order in every
        # process (a set of id-hashed objects iterates by address)
        self._connections: dict[RealtimeConnection, None] = {}
        self._conn_ids = itertools.count(1)
        # observability
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.snapshots_sent = 0
        self.resets = 0

    @property
    def recorder(self):
        """The shared execution-history recorder (None when disabled)."""
        return self.backend.layout.spanner.recorder

    def connect(self) -> RealtimeConnection:
        """Open a new long-lived client connection."""
        connection = RealtimeConnection(self, next(self._conn_ids))
        self._connections[connection] = None
        return connection

    @property
    def connection_count(self) -> int:
        """Open connections on this task."""
        return len(self._connections)

    @property
    def active_queries(self) -> int:
        """Registered queries across all connections."""
        return sum(c.query_count for c in self._connections)

    def pump(self) -> int:
        """Deliver any snapshots that have become consistent."""
        emitted = 0
        with self.tracer.span("frontend.pump", component="frontend") as span:
            for connection in list(self._connections):
                emitted += connection._pump()
            span.set_attribute("snapshots", emitted)
        self.snapshots_sent += emitted
        return emitted

    def crash(self) -> int:
        """Simulate losing this Frontend task (fault injection).

        The task's in-memory query state — buffered pending changes and
        watermarks — is gone; the replacement task redoes every query
        from scratch on the next pump, the same fail-safe path an
        out-of-sync range takes. Listeners then receive one snapshot with
        the net difference, so nothing is missed or duplicated. Returns
        the number of queries marked for reset.
        """
        marked = 0
        for connection in self._connections:
            for state in connection._states.values():
                state.pending.clear()
                state.needs_reset = True
                marked += 1
        return marked

    # -- query lifecycle --------------------------------------------------------------

    def _start_query(self, state: _QueryState) -> None:
        """Steps 2-4: initial snapshot via the Backend, then Subscribe."""
        previous = dict(state.result)
        result = self.backend.run_query(state.query)
        state.result = {
            doc.path: (doc.data, doc.update_time, doc.create_time)
            for doc in result.documents
        }
        state.max_commit_version = result.read_ts
        state.pending.clear()
        state.needs_reset = False

        subscription = self.matcher.subscribe(
            state.normalized,
            resume_ts=result.read_ts,
            deliver=lambda _sid, change: state.pending.append(
                (change.commit_ts, change)
            ),
            notify_watermark=self._make_watermark_cb(state),
            notify_reset=lambda _sid: setattr(state, "needs_reset", True),
        )
        state.subscription = subscription
        state.range_watermarks = {
            range_id: result.read_ts for range_id in subscription.range_ids
        }
        # the whole result is touched: diff it against the last view
        # (empty on the first listen)
        before = {path: previous.get(path) for path in (*previous, *state.result)}
        delta = self._touched_delta(
            state, before, list(previous), result.read_ts, is_initial=True
        )
        with self.tracer.span(
            "listener.notify",
            component="frontend",
            attributes={"read_ts": delta.read_ts, "initial": True}
            if self.tracer
            else None,
        ):
            state.on_snapshot(delta)
        recorder = self.recorder
        if recorder is not None:
            recorder.notify(
                state.record_tag, delta.read_ts, True, _delta_paths(delta)
            )
        self.snapshots_sent += 1

    def _make_watermark_cb(self, state: _QueryState):
        def callback(_sid: int, range_id: int, watermark: int) -> None:
            current = state.range_watermarks.get(range_id, 0)
            if watermark > current:
                state.range_watermarks[range_id] = watermark

        return callback

    def _reset_query(self, state: _QueryState) -> None:
        """The fail-safe: abort accumulated state and redo from scratch.

        "This reset is fast, and is mostly transparent to the end-user"
        — the client receives one snapshot containing the net difference.
        """
        self.resets += 1
        if state.subscription is not None:
            self.matcher.unsubscribe(state.subscription.subscription_id)
        self._start_query(state)

    # -- applying buffered changes --------------------------------------------------------

    def _apply_pending(self, state: _QueryState, target_ts: int) -> Optional[SnapshotDelta]:
        """Apply buffered changes with commit_ts <= target, build a delta.

        Only called when a change is ready (``_pump`` skips bystanders).
        The delta comes from the paths that the ready changes and limit
        trimming touched, not from a re-diff of the whole result.
        """
        ready = sorted(
            (item for item in state.pending if item[0] <= target_ts),
            key=lambda item: item[0],
        )
        state.pending = [item for item in state.pending if item[0] > target_ts]
        result = state.result
        limit = state.normalized.query.limit
        at_capacity = limit is not None and len(result) >= limit
        #: each touched path's entry before this apply (None: not a member)
        before: dict[Path, Optional[tuple[dict, int, int]]] = {}
        #: the pre-apply member order, taken before the first removal;
        #: ``removed`` follows it
        members: Optional[list[Path]] = None

        for commit_ts, change in ready:
            path = change.path
            if path not in before:
                before[path] = result.get(path)
            if document_matches_query(state.normalized, path, change.new_data):
                create_ts = change.create_ts
                result[path] = (
                    change.new_data,
                    commit_ts,
                    commit_ts if create_ts is None else create_ts,
                )
            elif path in result:
                if at_capacity:
                    # a member left a full limited result set: the next
                    # entrant is outside our view; re-run the query
                    return self._roll_back_and_reset(state, before, members)
                if members is None:
                    members = list(result)
                del result[path]

        if limit is not None and len(result) > limit:
            if members is None:
                members = list(result)
            for path in self._members_in_order(state)[limit:]:
                before.setdefault(path, result[path])
                del result[path]
        if at_capacity and state.documents and self._past_window(state, before):
            # a member moved past the old last member of a full limited
            # result set: a document outside our view may now precede it
            return self._roll_back_and_reset(state, before, members)
        state.max_commit_version = target_ts
        return self._touched_delta(state, before, members, target_ts)

    def _roll_back_and_reset(
        self,
        state: _QueryState,
        before: dict[Path, Optional[tuple[dict, int, int]]],
        members: Optional[list[Path]],
    ) -> None:
        """Undo a partly applied batch, then reset the query, so the
        reset's snapshot diffs against what the listener last saw."""
        result = state.result
        order = members if members is not None else list(result)
        state.result = {
            path: before[path] if path in before else result[path]
            for path in order
            if path not in before or before[path] is not None
        }
        self._reset_query(state)

    def _past_window(
        self, state: _QueryState, before: dict[Path, Optional[tuple[dict, int, int]]]
    ) -> bool:
        """Does a touched member now sort after the last delivered one?"""
        key = query_order_key(state.normalized)
        last = state.documents[-1]
        boundary = key((last.path, last.data))
        result = state.result
        return any(
            path in result and key((path, result[path][0])) > boundary
            for path in before
        )

    def _touched_delta(
        self,
        state: _QueryState,
        before: dict[Path, Optional[tuple[dict, int, int]]],
        members: Optional[list[Path]],
        read_ts: int,
        is_initial: bool = False,
    ) -> SnapshotDelta:
        """The delta of an apply that touched exactly ``before``'s paths
        (every path, for an initial snapshot or a reset).

        While membership holds and no touched document moved in the
        query order, the cached ``documents`` are reused with only the
        touched entries replaced; otherwise they are re-sorted.
        """
        result = state.result
        rebuilt: dict[Path, Document] = {}
        for path in before:
            entry = result.get(path)
            if entry is not None:
                rebuilt[path] = Document(path, entry[0], entry[2], entry[1])
        resort = len(rebuilt) != len(before) or any(
            before[path] is None
            or _order_moved(state.normalized, before[path][0], doc.data)
            for path, doc in rebuilt.items()
        )
        if resort:
            documents = self._ordered_documents(state)
        else:
            documents = tuple(rebuilt.get(doc.path, doc) for doc in state.documents)
        state.documents = documents
        added = []
        modified = []
        for doc in documents:
            if doc.path in rebuilt:
                old = before[doc.path]
                if old is None:
                    added.append(doc)
                elif old[0] != doc.data:
                    modified.append(doc)
        removed = (
            ()
            if members is None
            else tuple(
                path
                for path in members
                if path not in result and before[path] is not None
            )
        )
        return SnapshotDelta(
            query_tag=state.tag,
            read_ts=read_ts,
            added=tuple(added),
            modified=tuple(modified),
            removed=removed,
            documents=documents,
            is_initial=is_initial,
        )

    def _members_in_order(self, state: _QueryState) -> list[Path]:
        """The result's paths, sorted in query order."""
        key = query_order_key(state.normalized)
        ordered = sorted(
            ((path, data) for path, (data, _, _) in state.result.items()), key=key
        )
        return [path for path, _ in ordered]

    def _ordered_documents(self, state: _QueryState) -> tuple[Document, ...]:
        """The whole result as Documents, sorted in query order."""
        result = state.result
        return tuple(
            Document(path, result[path][0], result[path][2], result[path][1])
            for path in self._members_in_order(state)
        )


def _order_moved(normalized: NormalizedQuery, old: dict, new: dict) -> bool:
    """Did an update change any field the query orders by?"""
    for order in normalized.core_orders:
        _, old_value = get_field(old, order.field_path)
        _, new_value = get_field(new, order.field_path)
        if compare_values(old_value, new_value):
            return True
    return False
