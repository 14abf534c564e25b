import pytest

from repro.errors import Aborted, CommitOutcomeUnknown, InternalError
from repro.sim.clock import SimClock
from repro.faults.plan import FaultPlan
from repro.spanner.database import SpannerDatabase


@pytest.fixture
def db():
    database = SpannerDatabase(clock=SimClock(1_000_000))
    database.create_table("Entities")
    database.create_table("IndexEntries")
    return database


def commit_row(db, table, key, value):
    txn = db.begin()
    txn.put(table, key, value)
    return txn.commit()


def test_simple_commit_and_snapshot_read(db):
    result = commit_row(db, "Entities", b"doc1", {"x": 1})
    assert result.commit_ts > 0
    assert db.snapshot_read("Entities", b"doc1", result.commit_ts) == {"x": 1}
    assert db.snapshot_read("Entities", b"doc1", result.commit_ts - 1) is None
    assert db.commits == 1


def test_read_your_own_writes(db):
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    assert txn.read("Entities", b"k") == "v"
    txn.delete("Entities", b"k")
    assert txn.read("Entities", b"k") is None


def test_read_absent_row(db):
    txn = db.begin()
    assert txn.read("Entities", b"nothing") is None
    txn.rollback()


def test_delete_visible_after_commit(db):
    commit_row(db, "Entities", b"k", "v")
    txn = db.begin()
    txn.delete("Entities", b"k")
    result = txn.commit()
    assert db.snapshot_read("Entities", b"k", result.commit_ts) is None


def test_commit_timestamps_strictly_increase(db):
    first = commit_row(db, "Entities", b"a", 1)
    second = commit_row(db, "Entities", b"b", 2)
    assert second.commit_ts > first.commit_ts


def test_write_write_conflict_aborts(db):
    txn1 = db.begin()
    txn2 = db.begin()
    txn1.read("Entities", b"k", for_update=True)
    with pytest.raises(Aborted):
        txn2.read("Entities", b"k", for_update=True)
    assert not txn2.is_active
    # txn1 can proceed
    txn1.put("Entities", b"k", "v")
    txn1.commit()
    assert db.aborts == 1


def test_commit_lock_conflict_with_reader(db):
    reader = db.begin()
    reader.read("Entities", b"k")  # shared lock
    writer = db.begin()
    writer.put("Entities", b"k", "v")
    with pytest.raises(Aborted):
        writer.commit()
    reader.rollback()
    # after the reader goes away, a fresh writer succeeds
    commit_row(db, "Entities", b"k", "v2")


def test_locks_released_after_commit(db):
    commit_row(db, "Entities", b"k", "v")
    assert db.locks.active_lock_count() == 0


def test_locks_released_after_rollback(db):
    txn = db.begin()
    txn.read("Entities", b"k", for_update=True)
    txn.rollback()
    assert db.locks.active_lock_count() == 0


def test_operations_on_finished_txn_fail(db):
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    txn.commit()
    with pytest.raises(InternalError):
        txn.put("Entities", b"j", "w")
    with pytest.raises(InternalError):
        txn.commit()


def test_min_commit_timestamp_respected(db):
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    result = txn.commit(min_commit_ts=99_000_000)
    assert result.commit_ts >= 99_000_000


def test_unsatisfiable_max_timestamp_aborts(db):
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    with pytest.raises(Aborted):
        txn.commit(max_commit_ts=1)  # far in the past
    assert db.snapshot_read("Entities", b"k", 10_000_000_000) is None


def test_multi_table_commit_is_atomic(db):
    txn = db.begin()
    txn.put("Entities", b"doc", "payload")
    txn.put("IndexEntries", b"idx1", b"")
    txn.put("IndexEntries", b"idx2", b"")
    result = txn.commit()
    assert result.mutation_count == 3
    ts = result.commit_ts
    assert db.snapshot_read("Entities", b"doc", ts) == "payload"
    assert db.snapshot_read("IndexEntries", b"idx1", ts) == b""


def test_participants_reported(db):
    txn = db.begin()
    txn.put("Entities", b"doc", "x")
    txn.put("IndexEntries", b"idx", b"")
    result = txn.commit()
    # Entities and IndexEntries rows may land in the same initial tablet,
    # but after a split they must not.
    assert result.participants >= 1


def test_rollback_discards_writes(db):
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    txn.rollback()
    assert db.snapshot_read("Entities", b"k", 10_000_000_000) is None


def test_none_values_rejected(db):
    txn = db.begin()
    with pytest.raises(InternalError):
        txn.put("Entities", b"k", None)


def armed_plan(db, site, **detail):
    plan = FaultPlan(seed=0)
    plan.arm(site, **detail)
    db.fault_plan = plan
    return plan


def test_injected_definitive_failure(db):
    armed_plan(db, "spanner.commit_fail")
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    with pytest.raises(Aborted):
        txn.commit()
    assert db.snapshot_read("Entities", b"k", 10_000_000_000) is None


@pytest.mark.parametrize("applied", [True, False])
def test_injected_unknown_outcome(db, applied):
    armed_plan(db, "spanner.commit_unknown", applied=applied)
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    with pytest.raises(CommitOutcomeUnknown):
        txn.commit()
    visible = db.snapshot_read("Entities", b"k", 10_000_000_000)
    assert (visible == "v") is applied
    assert db.locks.active_lock_count() == 0 or applied
    # even when applied, the txn is not reusable
    with pytest.raises(InternalError):
        txn.commit()


def test_fault_injector_is_one_shot(db):
    plan = armed_plan(db, "spanner.commit_fail")
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    with pytest.raises(Aborted):
        txn.commit()
    # the armed fault was consumed by the commit it fired on
    assert plan.armed("spanner.commit_fail") == 0
    assert plan.injected == {"spanner.commit_fail": 1}

    result = commit_row(db, "Entities", b"k", "v2")
    assert plan.injected == {"spanner.commit_fail": 1}
    assert db.snapshot_read("Entities", b"k", result.commit_ts) == "v2"


def test_fault_injector_clears_even_for_unknown_outcome(db):
    plan = armed_plan(db, "spanner.commit_unknown", applied=True)
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    with pytest.raises(CommitOutcomeUnknown):
        txn.commit()
    assert plan.armed("spanner.commit_unknown") == 0
    # a retry of the same logical write goes through untouched
    result = commit_row(db, "Entities", b"k", "v-retry")
    assert db.snapshot_read("Entities", b"k", result.commit_ts) == "v-retry"


def test_transactional_messages_only_on_commit(db):
    txn = db.begin()
    txn.put("Entities", b"k", "v")
    txn.enqueue_message("triggers", {"doc": "k"})
    assert db.message_queue.pending("triggers") == 0
    result = txn.commit()
    assert db.message_queue.pending("triggers") == 1
    message = db.message_queue.poll("triggers")[0]
    assert message.commit_ts == result.commit_ts
    assert message.payload == {"doc": "k"}


def test_messages_discarded_on_abort(db):
    txn = db.begin()
    txn.enqueue_message("triggers", "payload")
    txn.rollback()
    assert db.message_queue.pending() == 0


def test_txn_scan_merges_buffered_writes(db):
    commit_row(db, "Entities", b"b", "committed-b")
    commit_row(db, "Entities", b"d", "committed-d")
    txn = db.begin()
    txn.put("Entities", b"a", "own-a")
    txn.put("Entities", b"c", "own-c")
    txn.delete("Entities", b"d")
    txn.put("Entities", b"b", "own-b")  # overwrite committed
    rows = list(txn.scan("Entities", None, None))
    assert rows == [(b"a", "own-a"), (b"b", "own-b"), (b"c", "own-c")]
    txn.rollback()


def test_txn_scan_takes_shared_locks(db):
    commit_row(db, "Entities", b"k", "v")
    txn = db.begin()
    list(txn.scan("Entities", None, None))
    writer = db.begin()
    writer.put("Entities", b"k", "new")
    with pytest.raises(Aborted):
        writer.commit()
    txn.rollback()


def test_txn_scan_range_and_limit(db):
    for i in range(10):
        commit_row(db, "Entities", bytes([i]), i)
    txn = db.begin()
    rows = list(txn.scan("Entities", bytes([2]), bytes([8]), limit=3))
    assert [k for k, _ in rows] == [bytes([2]), bytes([3]), bytes([4])]
    txn.rollback()


def test_txn_scan_reverse(db):
    for i in range(5):
        commit_row(db, "Entities", bytes([i]), i)
    txn = db.begin()
    txn.put("Entities", bytes([9]), 9)
    rows = list(txn.scan("Entities", None, None, reverse=True))
    assert [k for k, _ in rows] == [bytes([9]), bytes([4]), bytes([3]), bytes([2]), bytes([1]), bytes([0])]
    txn.rollback()
