"""Lock-based read-write transactions with two-phase commit across tablets.

Mirrors the Spanner behaviour Firestore builds on (paper section IV-D1/2):

- reads inside the transaction take row locks (shared by default,
  exclusive when the caller will write the row, as the Backend does for
  documents in step 2 of the write protocol),
- writes are buffered and their exclusive locks are acquired at commit
  (step 6: "Spanner acquires additional exclusive locks on the specific
  IndexEntries rows"),
- the commit timestamp is constrained to a ``[min, max]`` window so the
  Real-time Cache's Prepare/Accept protocol can bound what it must wait
  for,
- a conflict aborts the transaction (callers retry with backoff).

Fault injection: the database's ``fault_plan`` (a ``repro.faults``
FaultPlan, duck-typed) drives the failure matrix — definitive commit
failure, unknown-outcome commits, lock-acquisition timeouts, unreachable
or slow tablets, and splits racing the commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import (
    Aborted,
    CommitOutcomeUnknown,
    InternalError,
    LockConflict,
    Unavailable,
)
from repro.obs.perf import NULL_PROFILER
from repro.spanner.locks import LockMode
from repro.spanner.mvcc import TOMBSTONE


@dataclass(frozen=True, slots=True)
class CommitResult:
    """Outcome of a successful commit."""

    commit_ts: int
    participant_tablets: tuple[int, ...]
    mutation_count: int

    @property
    def participants(self) -> int:
        """How many tablets the two-phase commit spanned."""
        return len(self.participant_tablets)


def _lock_abort(exc: LockConflict) -> Aborted:
    """Convert a lock conflict into the Aborted the caller retries on.

    The error carries ``wait_cause="lock_wait"`` so critical-path
    attribution can blame the retry backoff on lock contention rather
    than generic ``retry_backoff`` (see ``repro.obs.tracer.WAIT_CAUSES``).
    """
    error = Aborted(str(exc))
    error.wait_cause = "lock_wait"
    return error


class ReadWriteTransaction:
    """One Spanner read-write transaction."""

    __slots__ = (
        "_db",
        "txn_id",
        "start_ts",
        "_writes",
        "_pending_messages",
        "_state",
    )

    def __init__(self, db, txn_id: int):
        self._db = db
        self.txn_id = txn_id
        self.start_ts = db.clock.now_us
        # composite_key -> (value | TOMBSTONE)
        self._writes: dict[bytes, Any] = {}
        self._pending_messages: list[tuple[str, Any]] = []
        self._state = "active"
        recorder = db.recorder
        if recorder is not None:
            recorder.txn_begin(txn_id, self.start_ts)

    # -- lifecycle helpers ----------------------------------------------------

    @property
    def is_active(self) -> bool:
        """Whether the transaction can still read/write/commit."""
        return self._state == "active"

    def _check_active(self) -> None:
        if self._state != "active":
            raise InternalError(
                f"transaction {self.txn_id} is {self._state}, not active"
            )

    def _abort(self) -> None:
        self._db.locks.release_all(self.txn_id)
        self._state = "aborted"
        self._db.aborts += 1
        if self._db.sanitizer is not None:
            self._db.sanitizer.on_txn_finished(self.txn_id, "aborted")
        recorder = self._db.recorder
        if recorder is not None:
            recorder.txn_abort(self.txn_id)

    def rollback(self) -> None:
        """Abort the transaction and release its locks."""
        if self._state == "active":
            self._abort()

    # -- reads ------------------------------------------------------------------

    def read(
        self,
        table: str,
        row_key: bytes,
        for_update: bool = False,
    ) -> Any:
        """Read the latest committed value of a row, under lock.

        Returns None for absent/deleted rows. ``for_update=True`` takes an
        exclusive lock immediately (used by the Backend for document rows
        it will modify). Own buffered writes are visible.
        """
        self._check_active()
        schema = self._db.table(table)
        ckey = schema.composite_key(row_key)
        if ckey in self._writes:
            value = self._writes[ckey]
            return None if value is TOMBSTONE else value
        version = self.read_versioned(table, row_key, for_update=for_update)
        return None if version is None else version[1]

    def read_versioned(
        self,
        table: str,
        row_key: bytes,
        for_update: bool = False,
    ) -> Any:
        """Like :meth:`read` but returns (commit_ts, value) or None.

        Buffered writes of this transaction read back with a commit_ts of
        0 (their timestamp is not assigned until commit).
        """
        self._check_active()
        schema = self._db.table(table)
        ckey = schema.composite_key(row_key)
        if ckey in self._writes:
            value = self._writes[ckey]
            return None if value is TOMBSTONE else (0, value)
        mode = LockMode.EXCLUSIVE if for_update else LockMode.SHARED
        plan = self._db.fault_plan
        if plan is not None and plan.decide("spanner.lock_timeout") is not None:
            self._abort()
            raise Aborted(
                f"lock acquisition timed out on {ckey!r} (injected)"
            )
        try:
            # reprolint: disable=lock-discipline -- 2PL: read locks are held past return until commit/rollback releases them; only the abort path releases here
            self._db.locks.acquire(self.txn_id, ckey, mode)
        except LockConflict as exc:
            self._abort()
            raise _lock_abort(exc) from exc
        if plan is not None:
            if plan.decide("spanner.tablet_unavailable") is not None:
                self._abort()
                raise Unavailable(
                    f"tablet server for {ckey!r} unreachable (injected)"
                )
            slow = plan.decide("spanner.tablet_slow")
            if slow is not None:
                delay_us = slow.get("delay_us")
                if delay_us is None:
                    delay_us = plan.rand("spanner.tablet_slow").randint(
                        1_000, 20_000
                    )
                self._db.clock.advance(delay_us)
                if self._db.profiler:
                    # the stall is tablet time the transaction sat on
                    self._db.profiler.account(
                        "spanner", "read.tablet_slow", delay_us
                    )
                tracer = self._db.tracer
                if tracer:
                    span = tracer.current_span()
                    if span is not None:
                        # the stall elapsed on the clock inside whatever
                        # span is open — an interval storage wait
                        span.wait(
                            "storage_read",
                            start_us=self._db.clock.now_us - delay_us,
                            end_us=self._db.clock.now_us,
                            detail="tablet_slow",
                        )
        tablet = self._db.tablet_for(ckey)
        tablet.stats.record_read(self._db.clock.now_us)
        ts, value = tablet.read_latest(ckey)
        recorder = self._db.recorder
        if recorder is not None:
            # record the version's identity, not its liveness: a read of
            # a committed tombstone reads-from the deleting transaction
            # (ts stays its commit_ts); -1 means no version ever existed
            recorder.txn_read(
                self.txn_id,
                ckey,
                -1 if value is TOMBSTONE and ts == 0 else ts,
                for_update,
            )
        return None if value is TOMBSTONE else (ts, value)

    def scan(
        self,
        table: str,
        start: Optional[bytes],
        end: Optional[bytes],
        reverse: bool = False,
        limit: Optional[int] = None,
    ) -> Iterator[tuple[bytes, Any]]:
        """Range scan under a shared range lock plus per-row locks.

        Buffered writes of this transaction are merged into the result.
        The range lock covers the scanned interval, so a concurrent
        insert of a *new* key inside it conflicts — phantom protection,
        like Spanner's scanned-range locking.
        """
        self._check_active()
        schema = self._db.table(table)
        range_start = schema.composite_key(start if start is not None else b"")
        if end is not None:
            range_end: bytes | None = schema.composite_key(end)
        elif schema.tag < 0xFF:
            range_end = bytes([schema.tag + 1])
        else:  # pragma: no cover - tag space is capped below 0xFF
            range_end = None
        try:
            # reprolint: disable=lock-discipline -- 2PL: the scan's range lock is held until commit/rollback releases it; only the abort path releases here
            self._db.locks.acquire_range(self.txn_id, range_start, range_end)
        except LockConflict as exc:
            self._abort()
            raise _lock_abort(exc) from exc
        if self._db.sanitizer is not None:
            self._db.sanitizer.on_transactional_scan(
                self.txn_id, range_start, range_end
            )
        recorder = self._db.recorder
        if recorder is not None:
            recorder.txn_scan(self.txn_id, range_start, range_end)
        merged = self._merged_scan(table, start, end, reverse)
        count = 0
        for row_key, value in merged:
            schema = self._db.table(table)
            ckey = schema.composite_key(row_key)
            try:
                # reprolint: disable=lock-discipline -- 2PL: row locks taken by a reader are held until commit/rollback releases them; only the abort path releases here
                self._db.locks.acquire(self.txn_id, ckey, LockMode.SHARED)
            except LockConflict as exc:
                self._abort()
                raise _lock_abort(exc) from exc
            yield row_key, value
            count += 1
            if limit is not None and count >= limit:
                return

    def _merged_scan(
        self,
        table: str,
        start: Optional[bytes],
        end: Optional[bytes],
        reverse: bool,
    ) -> Iterator[tuple[bytes, Any]]:
        schema = self._db.table(table)
        tag = schema.tag

        def in_range(row_key: bytes) -> bool:
            if start is not None and row_key < start:
                return False
            if end is not None and row_key >= end:
                return False
            return True

        own: dict[bytes, Any] = {
            ckey[1:]: value
            for ckey, value in self._writes.items()
            if ckey[0] == tag and in_range(ckey[1:])
        }
        # Latest committed data (no read_ts: RW txns read latest under lock).
        latest_ts = self._db.truetime.last_issued or self._db.clock.now_us
        committed = self._db.snapshot_scan(
            table, start, end, read_ts=latest_ts, reverse=reverse
        )
        own_keys = sorted(own, reverse=reverse)
        own_idx = 0

        def own_ahead(committed_key: bytes) -> bool:
            key = own_keys[own_idx]
            return key < committed_key if not reverse else key > committed_key

        for row_key, value in committed:
            while own_idx < len(own_keys) and own_ahead(row_key):
                okey = own_keys[own_idx]
                own_idx += 1
                if own[okey] is not TOMBSTONE:
                    yield okey, own[okey]
            if own_idx < len(own_keys) and own_keys[own_idx] == row_key:
                okey = own_keys[own_idx]
                own_idx += 1
                if own[okey] is not TOMBSTONE:
                    yield okey, own[okey]
                continue
            yield row_key, value
        while own_idx < len(own_keys):
            okey = own_keys[own_idx]
            own_idx += 1
            if own[okey] is not TOMBSTONE:
                yield okey, own[okey]

    # -- writes ------------------------------------------------------------------

    def put(self, table: str, row_key: bytes, value: Any) -> None:
        """Buffer an insert-or-update of a row."""
        self._check_active()
        if value is None:
            raise InternalError("row values may not be None; use delete()")
        schema = self._db.table(table)
        self._writes[schema.composite_key(row_key)] = value

    def delete(self, table: str, row_key: bytes) -> None:
        """Buffer a deletion of a row."""
        self._check_active()
        schema = self._db.table(table)
        self._writes[schema.composite_key(row_key)] = TOMBSTONE

    def enqueue_message(self, topic: str, payload: Any) -> None:
        """Buffer a transactional message, durable iff the commit succeeds."""
        self._check_active()
        self._pending_messages.append((topic, payload))

    @property
    def pending_writes(self) -> int:
        """Buffered mutations awaiting commit."""
        return len(self._writes)

    # -- commit ------------------------------------------------------------------

    def commit(
        self,
        min_commit_ts: int = 0,
        max_commit_ts: Optional[int] = None,
    ) -> CommitResult:
        """Two-phase commit across every participant tablet.

        Raises :class:`Aborted` on lock conflict or an unsatisfiable
        timestamp window (definitive failures) and
        :class:`CommitOutcomeUnknown` when a fault injector simulates a
        lost acknowledgement.
        """
        self._check_active()
        tracer = self._db.tracer
        # duck-typed like recorder/fault_plan: the sim-time the commit
        # spends (fault delays advance the clock) lands in the profiler
        # ledger under spanner/commit, even on the abort paths
        profiler = self._db.profiler or NULL_PROFILER

        with profiler.measure("spanner", "commit", self._db.clock):
            # Phase 0: the replica group admits the commit — the leader
            # must be reachable with a live lease and a quorum up, else
            # Unavailable (clients retry with backoff, which advances the
            # clock toward lease expiry and failover)
            replication = self._db.replication
            if replication is not None:
                try:
                    replication.precommit()
                except Unavailable:
                    self._abort()
                    raise

            # Phase 1 (prepare): exclusive-lock every written row.
            with tracer.span(
                "spanner.locks",
                component="spanner",
                attributes={"phase": "prepare", "rows": len(self._writes)},
            ):
                for ckey in self._writes:
                    try:
                        self._db.locks.acquire(
                            self.txn_id, ckey, LockMode.EXCLUSIVE
                        )
                    except LockConflict as exc:
                        self._abort()
                        raise _lock_abort(exc) from exc

            self._inject_commit_faults(min_commit_ts, max_commit_ts)

            with tracer.span(
                "spanner.2pc", component="spanner", attributes={"phase": "commit"}
            ) as span:
                commit_ts = self._apply(min_commit_ts, max_commit_ts)
                participants = tuple(
                    sorted(
                        {
                            self._db.tablet_for(ckey).tablet_id
                            for ckey in self._writes
                        }
                    )
                )
                span.set_attribute("participants", len(participants))
                span.set_attribute("commit_ts", commit_ts)
                if tracer:
                    # TrueTime commit-wait: the committer must sit out the
                    # clock uncertainty before acking. The functional stack
                    # prices it without elapsing it — a *modeled* wait for
                    # critical-path attribution.
                    span.wait(
                        "commit_wait",
                        duration_us=self._db.truetime.commit_wait_us(commit_ts),
                    )
                result = CommitResult(commit_ts, participants, len(self._writes))
                self._db.locks.release_all(self.txn_id)
                self._state = "committed"
                self._db.commits += 1
                if self._db.sanitizer is not None:
                    self._db.sanitizer.on_txn_finished(
                        self.txn_id,
                        "committed",
                        commit_ts=commit_ts,
                        min_ts=min_commit_ts,
                        max_ts=max_commit_ts,
                    )
                return result

    def _inject_commit_faults(
        self, min_commit_ts: int, max_commit_ts: Optional[int]
    ) -> None:
        """Fire the fault plan's commit fault, if one is due.

        Raises :class:`Aborted` for definitive failures and
        :class:`CommitOutcomeUnknown` for lost acknowledgements; returns
        normally when no fault fires.
        """
        db = self._db
        plan = db.fault_plan
        if plan is None:
            return
        if plan.decide("spanner.split_during_commit") is not None:
            # a topology change mid-commit: the 2PC must tolerate the
            # tablet holding its writes splitting under it
            self._split_written_tablet()
        if plan.decide("spanner.commit_fail") is not None:
            self._abort()
            raise Aborted("commit failed definitively (injected)")
        detail = plan.decide("spanner.commit_unknown")
        if detail is None:
            return
        applied = detail.get("applied")
        if applied is None:
            applied = plan.rand("spanner.commit_unknown").bernoulli(0.5)
        applied = bool(applied)
        # "unknown" is a *client-side* state: the server either committed
        # or aborted, and in both cases it releases the transaction's
        # locks — only the acknowledgement was lost
        if applied:
            self._apply(min_commit_ts, max_commit_ts)
            db.locks.release_all(self.txn_id)
            db.commits += 1
            if db.sanitizer is not None:
                db.sanitizer.on_txn_finished(self.txn_id, "unknown-applied")
        else:
            self._abort()
        self._state = "unknown"
        recorder = db.recorder
        if recorder is not None:
            recorder.txn_unknown(self.txn_id, applied)
        raise CommitOutcomeUnknown("commit outcome unknown (injected)")

    def _split_written_tablet(self) -> None:
        """Split the tablet holding the first buffered write at that key."""
        if not self._writes:
            return
        from repro.spanner.splitting import LoadBasedSplitter

        ckey = next(iter(self._writes))
        tablet = self._db.tablet_for(ckey)
        if ckey > tablet.start_key:
            LoadBasedSplitter(self._db).split_tablet(tablet, at_key=ckey)

    def _apply(self, min_commit_ts: int, max_commit_ts: Optional[int]) -> int:
        replication = self._db.replication
        if replication is not None:
            # a post-failover leader must timestamp above the recovered
            # log tail (external consistency across failover); TrueTime's
            # global monotonicity already guarantees this, so the floor is
            # belt-and-braces the offline checker can see enforced
            min_commit_ts = max(min_commit_ts, replication.min_next_commit_ts)
        try:
            commit_ts = self._db.truetime.issue_commit_timestamp(
                min_commit_ts, max_commit_ts
            )
        except ValueError as exc:
            self._abort()
            raise Aborted(str(exc)) from exc
        now = self._db.clock.now_us
        for ckey, value in self._writes.items():
            tablet = self._db.tablet_for(ckey)
            chain = tablet.chain(ckey, create=True)
            chain.write(commit_ts, value)
            tablet.stats.record_write(now)
        if self._pending_messages:
            self._db.message_queue.commit_messages(self._pending_messages, commit_ts)
        if replication is not None:
            # quorum round: append to the replicated log and ship toward
            # followers (pure bookkeeping on the sim clock — the latency
            # model prices the commit's end-to-end time)
            replication.commit(commit_ts, len(self._writes))
        if self._db.sanitizer is not None:
            self._db.sanitizer.on_commit_applied(list(self._writes), commit_ts)
        recorder = self._db.recorder
        if recorder is not None:
            tt = self._db.truetime.now()
            recorder.txn_commit(
                self.txn_id,
                commit_ts,
                [
                    (ckey, "d" if value is TOMBSTONE else "w")
                    for ckey, value in self._writes.items()
                ],
                min_commit_ts,
                max_commit_ts,
                tt.earliest,
                tt.latest,
            )
        return commit_ts
