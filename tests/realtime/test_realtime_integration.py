"""End-to-end real-time query tests: write -> Changelog -> Matcher ->
Frontend -> consistent incremental snapshots (paper section IV-D4)."""

import pytest

from repro.core.backend import delete_op, set_op, update_op
from repro.core.firestore import FirestoreService
from repro.errors import DeadlineExceeded
from repro.faults.plan import FaultPlan


@pytest.fixture
def service():
    return FirestoreService()


@pytest.fixture
def db(service):
    return service.create_database("realtime-tests")


def pump(db, times=1, advance_us=100_000):
    for _ in range(times):
        db.service.clock.advance(advance_us)
        db.pump_realtime()


class TestBasicFlow:
    def test_initial_snapshot_immediate(self, db):
        db.commit([set_op("scores/g1", {"pts": 1})])
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        assert len(snaps) == 1
        assert snaps[0].is_initial
        assert [d.path.id for d in snaps[0].documents] == ["g1"]

    def test_update_produces_modified_delta(self, db):
        db.commit([set_op("scores/g1", {"pts": 1})])
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        db.commit([update_op("scores/g1", {"pts": 2})])
        pump(db)
        assert len(snaps) == 2
        delta = snaps[-1]
        assert [d.data["pts"] for d in delta.modified] == [2]
        assert delta.added == () and delta.removed == ()
        assert delta.read_ts > snaps[0].read_ts

    def test_create_and_delete_deltas(self, db):
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        db.commit([set_op("scores/g1", {"pts": 1})])
        pump(db)
        assert [d.path.id for d in snaps[-1].added] == ["g1"]
        db.commit([delete_op("scores/g1")])
        pump(db)
        assert [p.id for p in snaps[-1].removed] == ["g1"]
        assert snaps[-1].documents == ()

    def test_filtered_query_only_relevant_changes(self, db):
        snaps = []
        db.connect().listen(db.query("scores").where("live", "==", True), snaps.append)
        db.commit([set_op("scores/live1", {"live": True})])
        db.commit([set_op("scores/done1", {"live": False})])
        pump(db)
        assert len(snaps) == 2  # the non-matching write produced nothing
        assert [d.path.id for d in snaps[-1].documents] == ["live1"]

    def test_doc_leaving_result_set(self, db):
        db.commit([set_op("scores/g1", {"live": True})])
        snaps = []
        db.connect().listen(db.query("scores").where("live", "==", True), snaps.append)
        db.commit([update_op("scores/g1", {"live": False})])
        pump(db)
        assert [p.id for p in snaps[-1].removed] == ["g1"]

    def test_ordered_query_snapshots_sorted(self, db):
        snaps = []
        db.connect().listen(
            db.query("scores").order_by("pts", "desc"), snaps.append
        )
        db.commit([set_op("scores/a", {"pts": 5})])
        db.commit([set_op("scores/b", {"pts": 9})])
        db.commit([set_op("scores/c", {"pts": 7})])
        pump(db)
        assert [d.path.id for d in snaps[-1].documents] == ["b", "c", "a"]

    def test_no_snapshot_for_unrelated_collection(self, db):
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        db.commit([set_op("other/x", {"v": 1})])
        pump(db, times=3)
        assert len(snaps) == 1  # initial only

    def test_snapshots_skippable_under_rapid_writes(self, db):
        """Multiple commits between pumps coalesce into one snapshot —
        the paper: 'Firestore does not guarantee reporting every
        snapshot'."""
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        for pts in range(5):
            db.commit([set_op("scores/g1", {"pts": pts})])
        pump(db)
        assert len(snaps) == 2
        assert snaps[-1].documents[0].data["pts"] == 4  # latest state only


class TestLimitsAndUnlisten:
    def test_limit_query_eviction(self, db):
        for i, pts in enumerate([10, 20]):
            db.commit([set_op(f"scores/s{i}", {"pts": pts})])
        snaps = []
        db.connect().listen(
            db.query("scores").order_by("pts", "desc").limit_to(2), snaps.append
        )
        db.commit([set_op("scores/new", {"pts": 30})])
        pump(db)
        last = snaps[-1]
        assert [d.data["pts"] for d in last.documents] == [30, 20]
        assert [p.id for p in last.removed] == ["s0"]

    def test_limit_query_removal_triggers_requery(self, db):
        for i, pts in enumerate([10, 20, 30]):
            db.commit([set_op(f"scores/s{i}", {"pts": pts})])
        snaps = []
        db.connect().listen(
            db.query("scores").order_by("pts", "desc").limit_to(2), snaps.append
        )
        assert [d.data["pts"] for d in snaps[-1].documents] == [30, 20]
        db.commit([delete_op("scores/s2")])  # evict the top element
        pump(db, times=2)
        assert [d.data["pts"] for d in snaps[-1].documents] == [20, 10]

    def test_unlisten_stops_updates(self, db):
        snaps = []
        connection = db.connect()
        tag = connection.listen(db.query("scores"), snaps.append)
        connection.unlisten(tag)
        db.commit([set_op("scores/g1", {"pts": 1})])
        pump(db)
        assert len(snaps) == 1
        assert db.realtime.active_queries == 0

    def test_connection_close_cleans_up(self, db):
        connection = db.connect()
        connection.listen(db.query("scores"), lambda s: None)
        connection.listen(db.query("other"), lambda s: None)
        connection.close()
        assert db.realtime.active_queries == 0
        assert db.frontend.connection_count == 0


class TestMultiQueryConsistency:
    def test_queries_on_one_connection_update_together(self, db):
        db.commit([set_op("a/1", {"v": 1}), set_op("b/1", {"v": 1})])
        seen = {}
        connection = db.connect()
        connection.listen(db.query("a"), lambda s: seen.setdefault("a", []).append(s), tag="qa")
        connection.listen(db.query("b"), lambda s: seen.setdefault("b", []).append(s), tag="qb")
        # one transaction touches both collections
        db.commit([update_op("a/1", {"v": 2}), update_op("b/1", {"v": 2})])
        pump(db)
        # both queries advanced to the same consistent timestamp
        assert seen["a"][-1].read_ts == seen["b"][-1].read_ts
        assert seen["a"][-1].documents[0].data["v"] == 2
        assert seen["b"][-1].documents[0].data["v"] == 2


class TestFailureRecovery:
    def test_unknown_outcome_resets_query_transparently(self, db):
        db.commit([set_op("scores/g1", {"pts": 1})])
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        db.layout.spanner.fault_plan = plan = FaultPlan(seed=0)
        plan.arm("spanner.commit_unknown", applied=True)
        with pytest.raises(DeadlineExceeded):
            db.commit([set_op("scores/g2", {"pts": 2})])
        pump(db, times=2)
        # the reset re-queried and delivered the committed-but-unacked doc
        assert db.frontend.resets >= 1
        assert {d.path.id for d in snaps[-1].documents} == {"g1", "g2"}

    def test_lost_accept_times_out_and_recovers(self, db):
        db.commit([set_op("scores/g1", {"pts": 1})])
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        db.realtime.drop_accepts = True
        db.commit([set_op("scores/g2", {"pts": 2})])
        db.realtime.drop_accepts = False
        # wait past the accept deadline so the changelog declares the
        # range out-of-sync, then recover
        pump(db, times=3, advance_us=4_000_000)
        pump(db, times=2)
        assert db.realtime.changelog.timeouts >= 1
        assert {d.path.id for d in snaps[-1].documents} == {"g1", "g2"}

    def test_ownership_resharding_resets_listeners(self, db):
        db.commit([set_op("scores/g1", {"pts": 1})])
        snaps = []
        db.connect().listen(db.query("scores"), snaps.append)
        from repro.core.path import Path

        db.realtime.ownership.split(Path.parse("scores/m"))
        pump(db)
        assert db.frontend.resets >= 1
        # listener still works across the new ranges
        db.commit([set_op("scores/z9", {"pts": 9})])
        pump(db, times=2)
        assert {d.path.id for d in snaps[-1].documents} == {"g1", "z9"}
