"""Seeded-anomaly fixtures: histories the checker MUST flag.

Each function here is a *deliberately broken* toy store registered as an
``anomaly-*`` scenario: it fabricates an execution history straight into
a :class:`repro.check.history.HistoryRecorder`, skipping the real
stack's locking / TrueTime / watermark machinery — exactly the bugs the
checker exists to catch:

- :func:`lost_update` — unlocked read-modify-write: overlapping
  transactions both read the same version of a key and both overwrite
  it (:class:`repro.check.checker.LostUpdate`).
- :func:`write_skew` — snapshot-isolation-style transactions read two
  keys and write one each, mutually overwriting what the other read
  (:class:`repro.check.checker.WriteSkew`).
- :func:`stale_notification` — a Changelog that drops or reorders
  committed changes while still advancing its watermark
  (:class:`repro.check.checker.NotificationLoss` /
  :class:`~repro.check.checker.NotificationOrderViolation`).
- :func:`non_monotonic_ts` — per-node clock skew instead of TrueTime:
  commit timestamps regress in real-time order
  (:class:`repro.check.checker.NonMonotonicCommit`).

Each takes the scenario table's builder signature ``(plan, seed, ops,
run)`` (:mod:`repro.faults.chaos`) and ignores the fault plan. All
randomness is a deterministic function of the seed (under ``delay``,
``run.mode`` stretches the conflict windows of every store but
:func:`stale_notification`, which consults no mode), so the schedule
explorer's sweep finds violating seeds and shrinks them to minimal
reproducers just as it would for a real bug.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.check.history import HistoryRecorder, install
from repro.sim.rand import SimRandom


def _recorder(name: str) -> HistoryRecorder:
    """A recorder registered for collection by the active recording()."""
    return install(SimpleNamespace(clock=None, name=name, recorder=None))


def _overlap_bias(mode: str) -> int:
    """``delay`` stretches the toy stores' conflict windows."""
    return 2 if mode == "delay" else 1


def lost_update(plan, seed: int, ops: int, run) -> None:
    """Unlocked read-modify-write transactions over one counter key."""
    rand = SimRandom(seed).fork("anomaly-lost-update")
    recorder = _recorder("anomaly-lost-update")
    key = b"counter"
    hold = 1_600 * _overlap_bias(run.mode)
    schedule: list[tuple[int, str, int]] = []  # (time, action, txn)
    for txn_id in range(1, ops + 1):
        read_at = txn_id * 1_000 + rand.randint(0, 800)
        commit_at = read_at + rand.randint(100, hold)
        schedule.append((read_at, "read", txn_id))
        schedule.append((commit_at, "commit", txn_id))
    schedule.sort()
    committed_ts = -1  # latest version of the key; -1 = absent
    observed: dict[int, int] = {}
    last_ts = 0
    for at, action, txn_id in schedule:
        if action == "read":
            recorder.txn_begin(txn_id, at)
            recorder.txn_read(txn_id, key, committed_ts, False)
            observed[txn_id] = committed_ts
        else:
            last_ts = max(last_ts + 1, at)
            recorder.txn_commit(
                txn_id, last_ts, [(key, "w")], 0, None, last_ts - 2, last_ts + 2
            )
            committed_ts = last_ts


def write_skew(plan, seed: int, ops: int, run) -> None:
    """Transactions read both keys but only lock-and-write their own."""
    rand = SimRandom(seed).fork("anomaly-write-skew")
    recorder = _recorder("anomaly-write-skew")
    keys = (b"on-call-a", b"on-call-b")
    hold = 1_600 * _overlap_bias(run.mode)
    schedule: list[tuple[int, str, int]] = []
    for txn_id in range(1, ops + 1):
        read_at = txn_id * 1_000 + rand.randint(0, 800)
        commit_at = read_at + rand.randint(100, hold)
        schedule.append((read_at, "read", txn_id))
        schedule.append((commit_at, "commit", txn_id))
    schedule.sort()
    latest = {keys[0]: -1, keys[1]: -1}
    last_ts = 0
    for at, action, txn_id in schedule:
        # each transaction writes one key (alternating) but reads both
        written = keys[txn_id % 2]
        if action == "read":
            recorder.txn_begin(txn_id, at)
            for key in keys:
                recorder.txn_read(txn_id, key, latest[key], False)
        else:
            last_ts = max(last_ts + 1, at)
            recorder.txn_commit(
                txn_id,
                last_ts,
                [(written, "w")],
                0,
                None,
                last_ts - 2,
                last_ts + 2,
            )
            latest[written] = last_ts


def stale_notification(plan, seed: int, ops: int, run) -> None:
    """A Changelog that loses/reorders changes yet advances anyway."""
    rand = SimRandom(seed).fork("anomaly-stale-notification")
    recorder = _recorder("anomaly-stale-notification")
    range_id = 1
    accepted: list[tuple[int, str]] = []
    for op in range(ops):
        ts = (op + 1) * 1_000
        path = f"docs/d{op}"
        recorder.changelog_accept(
            range_id, op + 1, "committed", ts, [path]
        )
        accepted.append((ts, path))
    # the broken flush: sometimes drop a change, sometimes swap a pair
    deliveries = list(accepted)
    for position in range(len(deliveries) - 1):
        if rand.bernoulli(0.2):
            deliveries[position], deliveries[position + 1] = (
                deliveries[position + 1],
                deliveries[position],
            )
    deliveries = [item for item in deliveries if not rand.bernoulli(0.3)]
    for ts, path in deliveries:
        recorder.changelog_deliver(range_id, ts, path)
    # ...while still claiming the whole prefix is complete
    recorder.changelog_watermark(range_id, accepted[-1][0] + 100)


def non_monotonic_ts(plan, seed: int, ops: int, run) -> None:
    """Two commit nodes trusting their own skewed clocks, no TrueTime."""
    rand = SimRandom(seed).fork("anomaly-non-monotonic-ts")
    recorder = _recorder("anomaly-non-monotonic-ts")
    skews = (0, rand.randint(-3_000, 3_000) * _overlap_bias(run.mode))
    now = 10_000
    for txn_id in range(1, ops + 1):
        now += rand.randint(200, 1_200)
        node = txn_id % 2
        ts = max(1, now + skews[node])
        recorder.txn_begin(txn_id, now)
        recorder.txn_commit(
            txn_id,
            ts,
            [(b"doc-%d" % txn_id, "w")],
            0,
            None,
            ts - 2,
            ts + 2,
        )
