"""The recorder: event encoding, opt-in installation, and the
byte-identical-same-seed property the replay harness enforces."""

from types import SimpleNamespace

from repro.analysis.replay import run_replay
from repro.check.history import (
    HistoryRecorder,
    checking_enabled,
    drain_recorders,
    install,
    maybe_install,
    recording,
    set_enabled,
)
from repro.faults.chaos import run_chaos
from repro.obs.export import history_jsonl


def make_db(name="db"):
    return SimpleNamespace(clock=None, name=name, recorder=None)


def test_event_encoding_roundtrip():
    recorder = HistoryRecorder(name="unit")
    recorder.txn_begin(1, 5)
    recorder.txn_read(1, b"\x01", -1, True)
    recorder.txn_commit(1, 10, [(b"\x01", "w"), (b"\x02", "d")], 0, 99, 8, 12)
    recorder.txn_abort(2)
    recorder.txn_unknown(3, applied=True)
    recorder.snapshot_read(b"\x01", 20, 10)
    recorder.backend_prepare("db", 7, 1, 99, ["docs/a"])
    recorder.backend_accept("db", 7, "committed", 10, ["docs/a"])
    recorder.changelog_accept(1, 7, "committed", 10, ["docs/a"])
    recorder.changelog_deliver(1, 10, "docs/a")
    recorder.changelog_watermark(1, 10)
    recorder.notify("tag", 10, True, ["docs/a"])
    assert [e["k"] for e in recorder.events] == [
        "begin",
        "read",
        "commit",
        "abort",
        "unknown",
        "snap_read",
        "prepare",
        "accept",
        "cl_accept",
        "cl_deliver",
        "cl_watermark",
        "notify",
    ]
    # no clock -> no "t" field; commit carries window + TrueTime interval
    assert "t" not in recorder.events[0]
    commit = recorder.events[2]
    assert commit["writes"] == [["01", "w"], ["02", "d"]]
    assert (commit["min"], commit["max"]) == (0, 99)
    assert (commit["tt_e"], commit["tt_l"]) == (8, 12)
    log = history_jsonl([recorder.events])
    assert log.count("\n") == len(recorder.events) and log.endswith("\n")
    assert HistoryRecorder.parse_jsonl(log) == recorder.events


def test_clock_and_span_stamping():
    clock = SimpleNamespace(now_us=1234)
    recorder = HistoryRecorder(clock=clock)
    recorder.txn_begin(1, 0)
    assert recorder.events[0]["t"] == 1234


def test_opt_in_gate(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    set_enabled(None)
    assert not checking_enabled()
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert checking_enabled()
    monkeypatch.setenv("REPRO_CHECK", "0")
    assert not checking_enabled()
    set_enabled(True)
    try:
        assert checking_enabled()
    finally:
        set_enabled(None)


def test_maybe_install_respects_gate_and_existing(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    set_enabled(None)
    drain_recorders()
    assert maybe_install(make_db()) is None  # disabled: no recorder
    set_enabled(True)
    try:
        db = make_db()
        recorder = maybe_install(db)
        assert recorder is not None and db.recorder is recorder
        assert maybe_install(db) is None  # already installed
        assert drain_recorders() == [recorder]
        assert drain_recorders() == []  # drained exactly once
    finally:
        set_enabled(None)


def test_recording_context_collects_and_restores(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    set_enabled(None)
    with recording() as recorders:
        assert checking_enabled()
        installed = install(make_db())
    assert not checking_enabled()
    assert recorders == [installed]


def test_same_seed_history_logs_are_byte_identical():
    def jsonl(run):
        return history_jsonl(run.histories)

    first = run_chaos("commit", 5, "none")
    second = run_chaos("commit", 5, "none")
    assert first.histories
    assert jsonl(first) == jsonl(second)
    other = run_chaos("commit", 6, "none")
    assert jsonl(first) != jsonl(other)


def test_replay_harness_fingerprints_history():
    report = run_replay(
        lambda: {"history": run_chaos("commit", 3, "none").histories},
        runs=2,
    )
    assert report.deterministic
    assert report.runs[0].history_hash is not None
