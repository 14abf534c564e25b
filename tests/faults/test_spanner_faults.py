"""Spanner-layer fault hooks, driven through the public commit path.

Each site maps to one failure mode of the paper's section-V storage
layer; the assertions pin both the surfaced error and the resulting
database state (applied / not applied / locks released).
"""

import pytest

from repro.core.backend import set_op
from repro.core.firestore import FirestoreService
from repro.errors import Aborted, DeadlineExceeded, Unavailable
from repro.faults.plan import FaultPlan


@pytest.fixture()
def db():
    service = FirestoreService()
    database = service.create_database("spanner-faults")
    plan = FaultPlan(seed=0)
    database.layout.spanner.fault_plan = plan
    database.fault_plan = plan
    yield database
    plan.disarm()


def spanner_of(db):
    return db.layout.spanner


def test_lock_timeout_surfaces_aborted_and_releases_locks(db):
    db.fault_plan.arm("spanner.lock_timeout")
    with pytest.raises(Aborted, match="lock acquisition timed out"):
        db.commit([set_op("docs/a", {"n": 1})])
    # the aborted transaction holds nothing: the same write now succeeds
    db.commit([set_op("docs/a", {"n": 2})])
    assert db.lookup("docs/a").data == {"n": 2}


def test_tablet_unavailable_surfaces_unavailable(db):
    db.fault_plan.arm("spanner.tablet_unavailable")
    with pytest.raises(Unavailable, match="unreachable"):
        db.commit([set_op("docs/a", {"n": 1})])
    assert db.run_query(db.query("docs")).documents == []


def test_tablet_slow_advances_the_sim_clock(db):
    clock = spanner_of(db).clock
    db.commit([set_op("docs/a", {"n": 1})])
    baseline = clock.now_us
    db.fault_plan.arm("spanner.tablet_slow", delay_us=7_000)
    db.commit([set_op("docs/a", {"n": 2})])
    assert clock.now_us >= baseline + 7_000
    assert db.lookup("docs/a").data == {"n": 2}


def test_commit_fail_aborts_and_applies_nothing(db):
    db.fault_plan.arm("spanner.commit_fail")
    with pytest.raises(Aborted, match="definitively"):
        db.commit([set_op("docs/a", {"n": 1})])
    assert db.run_query(db.query("docs")).documents == []
    db.commit([set_op("docs/a", {"n": 2})])
    assert db.lookup("docs/a").data == {"n": 2}


def test_commit_unknown_applied_raises_but_the_write_landed(db):
    db.fault_plan.arm("spanner.commit_unknown", applied=True)
    with pytest.raises(DeadlineExceeded, match="may or may not"):
        db.commit([set_op("docs/a", {"n": 1})])
    assert db.lookup("docs/a").data == {"n": 1}


def test_commit_unknown_lost_raises_and_nothing_landed(db):
    db.fault_plan.arm("spanner.commit_unknown", applied=False)
    with pytest.raises(DeadlineExceeded, match="may or may not"):
        db.commit([set_op("docs/a", {"n": 1})])
    assert db.run_query(db.query("docs")).documents == []


def test_commit_unknown_releases_locks_either_way(db):
    for applied in (True, False):
        db.fault_plan.arm("spanner.commit_unknown", applied=applied)
        with pytest.raises(DeadlineExceeded):
            db.commit([set_op("docs/a", {"n": 1})])
        # the server side resolved the 2PC; a follow-up write must not
        # deadlock on leaked locks
        db.commit([set_op("docs/a", {"n": 9})])
        assert db.lookup("docs/a").data == {"n": 9}


def test_split_during_commit_grows_topology_and_still_commits(db):
    spanner = spanner_of(db)
    db.commit([set_op("docs/a", {"n": 1})])
    before = len(spanner.tablets)
    db.fault_plan.arm("spanner.split_during_commit")
    db.commit([set_op("docs/b", {"n": 2})])
    assert len(spanner.tablets) == before + 1
    assert db.lookup("docs/b").data == {"n": 2}
    report = db.validate()
    assert report.is_clean, report.summary()

