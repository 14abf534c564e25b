"""A range scan costs the rows it yields, not the rows the table holds.

Counted, not timed: Python ``line`` events executed inside ``spanner/``
per scanned row (one full ``snapshot_scan``) and per ``limit=20`` scan,
over tables of 500, 2,000 and 8,000 rows. One row in ten is deleted, so
every scan also steps over tombstones, and one row in five has an older
version behind its newest. Both costs stay flat from 500 to 8,000 rows.

The structural half: a scanned row enters one ``spanner/`` frame, the
resumption of ``snapshot_scan`` itself, which walks the B+tree leaves
and applies MVCC visibility in line. A scan stacked from per-layer
generators (database -> tablet -> B+tree, plus a version-chain call per
row) enters four.
"""

import sys
from pathlib import Path

import repro.spanner
from repro.sim.clock import SimClock
from repro.spanner.database import SpannerDatabase
from tests._counting import lines_per_op

_COUNTED = tuple(
    f"spanner/{path.name}"
    for path in sorted(Path(repro.spanner.__file__).parent.glob("*.py"))
)
BATCH = 250
LIMITED_SCANS = 50


def build(rows: int) -> SpannerDatabase:
    db = SpannerDatabase(clock=SimClock(1_000_000))
    db.create_table("Entities")
    db.create_table("IndexEntries")
    for first in range(0, rows, BATCH):
        txn = db.begin()
        for n in range(first, min(rows, first + BATCH)):
            txn.put("Entities", b"row%06d" % n, n)
        txn.commit()
    txn = db.begin()
    for n in range(0, rows, 5):
        txn.put("Entities", b"row%06d" % n, -n)  # a second version
    txn.commit()
    txn = db.begin()
    for n in range(3, rows, 10):
        txn.delete("Entities", b"row%06d" % n)
    txn.commit()
    return db


def scan_costs(rows: int) -> tuple[float, float]:
    """(lines per scanned row, lines per ``limit=20`` scan)."""
    db = build(rows)
    read_ts = db.current_timestamp()

    def full_scan() -> int:
        return sum(1 for _ in db.snapshot_scan("Entities", None, None, read_ts))

    def limited_scans() -> int:
        for n in range(LIMITED_SCANS):
            start = b"row%06d" % (n * (rows - 40) // LIMITED_SCANS)
            got = list(db.snapshot_scan("Entities", start, None, read_ts, limit=20))
            assert len(got) == 20
        return LIMITED_SCANS

    assert full_scan() == rows - len(range(3, rows, 10))
    return lines_per_op(_COUNTED, full_scan), lines_per_op(_COUNTED, limited_scans)


def test_scan_cost_is_flat_in_table_size():
    small, medium, large = (scan_costs(rows) for rows in (500, 2_000, 8_000))
    per_row = [cost[0] for cost in (small, medium, large)]
    per_limited = [cost[1] for cost in (small, medium, large)]
    assert per_row[0] > 0 and per_limited[0] > 0  # the counted files ran
    assert per_row[2] <= 1.2 * per_row[0], per_row
    assert per_limited[2] <= 1.2 * per_limited[0], per_limited


def test_a_scanned_row_enters_one_spanner_frame():
    db = build(2_000)
    read_ts = db.current_timestamp()
    scans = (
        ("Entities", None, None, False),
        ("Entities", b"row000100", b"row001900", False),
        ("Entities", None, None, True),
        ("Entities", b"row000100", b"row001900", True),
    )
    for table, start, end, reverse in scans:
        frames = 0
        rows = 0

        def profile(frame, event, arg):
            nonlocal frames
            if event == "call" and frame.f_code.co_filename.endswith(_COUNTED):
                frames += 1

        scan = db.snapshot_scan(table, start, end, read_ts, reverse=reverse)
        sys.setprofile(profile)
        try:
            for _ in scan:
                rows += 1
        finally:
            sys.setprofile(None)
        assert rows > 1_000
        # every row resumes snapshot_scan at least once
        assert rows <= frames <= 1.5 * rows, (start, end, reverse, frames / rows)
