"""Differential test: one chaos harness against the copies it replaced.

The oracle below is the previous ``repro.faults.chaos`` harness, code
verbatim: the seven scenario bodies (four private copies of the
commit-under-faults loop, three of the overload storm sequence), the
overload sidecar, and ``run_chaos`` with its own recording/checking
block. One line differs, marked in ``_ycsb_chaos``: the ycsb accounting
fix, which landed separately from the refactor. It shares only the untouched helpers (``_drive_overload_fleet``,
``_applied_tokens``, ``_drain``, ...) with the module under test. Both
harnesses run the same (scenario, fault mix, seed, ops) cell and must
produce the same ``to_dict()``, recorded histories and fault log.

Mutants of the shared driver this file kills, each also pinned by a
named deterministic test below:

- realtime-fanout's pre-commit pause drawn up to 10ms, like every other
  scenario's, instead of 8ms;
- the overload sidecar writing ``docs/d0``–``d4`` instead of ``d0``–``d3``;
- realtime-fanout reading ``docs/counter`` (one extra ``snap_read`` in
  its history);
- metastable's fragile arm driven with the fault plan.

``isolation`` (the checker's transfer scenario) has no live oracle: the
one-shot commit hook it used to arm is gone from Spanner. Its histories
are pinned by the md5s the previous implementation produced.
"""

import hashlib
import inspect
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.checker import check_history
from repro.check.history import record_and_check, recording
from repro.faults import chaos
from repro.faults.chaos import (
    _OVERLOAD_COLLAPSED_RATIO,
    _OVERLOAD_RECOVERED_RATIO,
    SCENARIOS,
    ChaosRun,
    _applied_tokens,
    _attach_critpath,
    _drain,
    _drive_overload_fleet,
    _fleet_summary,
    _judge_overload,
    _scenario_tracer,
    _uninstall,
    run_chaos,
)
from repro.faults.plan import FAULT_MIXES, FaultPlan, install, plan_for_mix
from repro.faults.retry import commit_with_retry, retry_stream
from repro.obs.export import history_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import OVERLOAD_SLOS, SloEngine
from repro.obs.stats import percentile_or
from repro.sim.rand import SimRandom

# -- the oracle: the previous harness, verbatim --------------------------------


def _commit_chaos(plan: FaultPlan, seed: int, ops: int, run: ChaosRun) -> None:
    """The seven-step write protocol under storage faults, exactly once.

    Every op commits a document write plus an increment of one shared
    counter through :func:`repro.faults.retry.commit_with_retry`. Because
    increments are not idempotent, the counter arithmetically exposes any
    duplicated replay; the commit ledger supplies ground truth for which
    ops applied. A mobile client rides along, with ``client.flap`` faults
    driving disconnect/reconnect cycles that queue writes offline and
    replay them on reconnection.
    """
    from repro.client.client import MobileClient
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService
    from repro.core.values import increment
    from repro.errors import FirestoreError

    rand = SimRandom(seed).fork("chaos-commit")
    jitter = retry_stream(f"chaos-commit:{seed}")
    service = FirestoreService(multi_region=False)
    database = service.create_database("chaos")
    install(plan, database)
    clock = service.clock

    deltas: list = []
    connection = database.connect()
    connection.listen(database.query("docs"), deltas.append)
    client = MobileClient(database, client_id="chaos-device")

    tokens: list[str] = []
    offline_until = -1
    for op in range(ops):
        clock.advance(rand.randint(1_000, 10_000))
        # the device: flap-driven offline writes replayed on reconnect
        if client.is_online and plan.decide("client.flap") is not None:
            client.disconnect()
            offline_until = op + rand.randint(1, 3)
        client.set(f"flap/m{op}", {"op": op})
        if not client.is_online and op >= offline_until:
            client.connect()
        # the server path: a doc write + a non-idempotent increment
        token = f"chaos-commit:{seed}:{op}"
        tokens.append(token)
        writes = [
            set_op(f"docs/d{rand.randint(0, 4)}", {"v": op}),
            set_op("docs/counter", {"n": increment(1)}),
        ]
        run.attempted += 1
        start = clock.now_us
        try:
            commit_with_retry(
                database,
                writes,
                token=token,
                rand=jitter,
                metrics=plan.metrics,
            )
        except FirestoreError:
            run.failed += 1
        else:
            run.succeeded += 1
            run.latencies_us.append(clock.now_us - start)
        clock.advance(rand.randint(1_000, 8_000))
        database.pump_realtime()

    # recovery window: faults stop, everything must settle
    _uninstall(database)
    if not client.is_online:
        client.connect()
    client.wait_for_pending_writes()
    _drain(database, rand)
    connection.close()

    applied = _applied_tokens(database, tokens)
    counter = database.lookup("docs/counter")
    actual = (counter.data or {}).get("n", 0)
    run.exactly_once = actual == len(applied)
    # every acknowledged commit must be in the ledger
    if run.succeeded > len(applied):
        run.exactly_once = False
    flap_docs = database.run_query(database.query("flap")).documents
    run.converged = (
        client.pending_writes == 0
        and all(
            (doc.data or {}).get("op") == int(str(doc.path).rsplit("/m", 1)[1])
            for doc in flap_docs
        )
    )
    run.extra = {
        "counter": actual,
        "ledger_applied": len(applied),
        "client_flushed_docs": len(flap_docs),
        "client_flush_errors": len(client.flush_errors),
        "client_shed_requests": client.shed_requests,
        "realtime_resets": database.realtime.total_resets,
        "deltas": len(deltas),
    }


def _ycsb_chaos(plan: FaultPlan, seed: int, ops: int, run: ChaosRun) -> None:
    """The serving fleet under network faults: drops, delays, duplicates,
    reorders and task crashes against a traced YCSB run. Availability is
    what survives admission + injected loss; the tail latencies show the
    cost of the chaos."""
    from repro.workloads.ycsb import YcsbConfig, YcsbRunner

    config = YcsbConfig(
        workload="A",
        target_qps=max(10, ops),
        duration_s=6,
        measure_last_s=3,
        record_count=200,
        seed=seed,
        trace=True,
    )
    runner = YcsbRunner(config)
    runner.cluster.fault_plan = plan
    plan.metrics = runner.metrics
    plan.tracer = runner.tracer
    result = runner.run()

    snapshot = runner.metrics.to_dict()
    dropped_rpcs = sum(
        entry.get("value", 0) for entry in snapshot.get("requests_failed", [])
    )
    # the one patch to the oracle: the ycsb accounting fix (succeeded
    # counted the last 3 of 6 s, failed the whole run)
    run.succeeded = runner.cluster.completed
    run.failed = result.rejected + dropped_rpcs
    run.attempted = run.succeeded + run.failed
    run.latencies_us = []  # percentiles come pre-aggregated from YCSB
    crashes = sum(
        entry.get("value", 0) for entry in snapshot.get("pool_task_crashes", [])
    )
    dropped = sum(
        entry.get("value", 0)
        for entry in snapshot.get("faults_deadline_expired", [])
    )
    run.extra = {
        "read_p50_us": result.read_p50_us,
        "read_p99_us": result.read_p99_us,
        "update_p50_us": result.update_p50_us,
        "update_p99_us": result.update_p99_us,
        "achieved_qps": round(result.achieved_qps, 3),
        "rejected": result.rejected,
        "task_crashes": crashes,
        "deadline_expired": dropped,
    }


def _fanout_chaos(plan: FaultPlan, seed: int, ops: int, run: ChaosRun) -> None:
    """The Real-time Cache under loss: dropped Accepts force the
    out-of-sync/resync fail-safe, Frontend crashes redo initial
    snapshots — and after recovery every listener's materialized view
    must equal the server state."""
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService
    from repro.errors import FirestoreError

    rand = SimRandom(seed).fork("chaos-fanout")
    jitter = retry_stream(f"chaos-fanout:{seed}")
    service = FirestoreService(multi_region=False)
    database = service.create_database("fanout")
    install(plan, database)
    clock = service.clock

    listeners = 6
    views: list[dict] = [{} for _ in range(listeners)]
    connection = database.connect()

    def make_apply(view: dict):
        def apply(delta) -> None:
            for doc in delta.documents:
                view[str(doc.path)] = doc.data
            for path in delta.removed:
                view.pop(str(path), None)

        return apply

    for view in views:
        connection.listen(database.query("feed"), make_apply(view))

    tokens: list[str] = []
    for op in range(ops):
        clock.advance(rand.randint(1_000, 8_000))
        token = f"chaos-fanout:{seed}:{op}"
        tokens.append(token)
        run.attempted += 1
        start = clock.now_us
        try:
            commit_with_retry(
                database,
                [set_op(f"feed/p{rand.randint(0, 3)}", {"v": op})],
                token=token,
                rand=jitter,
                metrics=plan.metrics,
            )
        except FirestoreError:
            run.failed += 1
        else:
            run.succeeded += 1
            run.latencies_us.append(clock.now_us - start)
        clock.advance(rand.randint(1_000, 8_000))
        database.pump_realtime()

    _uninstall(database)
    _drain(database, rand)
    connection.close()

    truth = {
        str(doc.path): doc.data
        for doc in database.run_query(database.query("feed")).documents
    }
    run.converged = all(view == truth for view in views)
    applied = _applied_tokens(database, tokens)
    run.exactly_once = run.succeeded <= len(applied)
    run.extra = {
        "documents": len(truth),
        "ledger_applied": len(applied),
        "realtime_resets": database.realtime.total_resets,
    }


def _failover_chaos(plan: FaultPlan, seed: int, ops: int, run: ChaosRun) -> None:
    """Geo-replicated commits through region outages, partitions, and
    slow replicas — with one guaranteed leader outage mid-run.

    The replica group runs a deliberately short leader lease, so the
    retry backoff of the ops that fail while the dead leader still holds
    it advances the sim clock past expiry and a follower is elected.
    Afterwards the usual chaos trio must hold (clean history — including
    the replication checker's external-consistency-across-failover pass —
    exactly-once counters, converged listeners), plus every follower must
    have applied the full replicated log.
    """
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService
    from repro.core.values import increment
    from repro.errors import FirestoreError

    from repro.obs.tracer import NULL_TRACER
    from repro.sim.clock import SimClock

    rand = SimRandom(seed).fork("chaos-failover")
    jitter = retry_stream(f"chaos-failover:{seed}")
    sim_clock = SimClock()
    tracer = _scenario_tracer(plan, sim_clock, seed)
    if tracer is not None:
        service = FirestoreService(
            multi_region=True, clock=sim_clock, tracer=tracer
        )
    else:
        service = FirestoreService(multi_region=True)
    trace = tracer if tracer is not None else NULL_TRACER
    database = service.create_database("failover")
    install(plan, database)
    clock = service.clock
    group = database.layout.spanner.replication
    # short lease: one-to-two failed commits' worth of retry backoff
    group.lease_us = 150_000 + rand.randint(0, 250_000)
    group.lease_expiry_us = clock.now_us + group.lease_us

    view: dict = {}
    connection = database.connect()

    def apply(delta) -> None:
        for doc in delta.documents:
            view[str(doc.path)] = doc.data
        for path in delta.removed:
            view.pop(str(path), None)

    connection.listen(database.query("docs"), apply)

    tokens: list[str] = []
    lag_samples: list[int] = []
    for op in range(ops):
        clock.advance(rand.randint(1_000, 10_000))
        if op == ops // 2:
            # the guaranteed failover: kill whatever region leads now
            # (armed faults consume no rate draws, so the mix's own
            # decisions are unperturbed)
            plan.arm(
                "region.outage",
                region=group.leader_region,
                duration_us=1_500_000,
            )
        token = f"chaos-failover:{seed}:{op}"
        tokens.append(token)
        writes = [
            set_op(f"docs/d{rand.randint(0, 4)}", {"v": op}),
            set_op("docs/counter", {"n": increment(1)}),
        ]
        run.attempted += 1
        start = clock.now_us
        with trace.span(
            "chaos.op",
            attributes={"operation": "commit", "database_id": "failover"},
        ):
            try:
                commit_with_retry(
                    database,
                    writes,
                    token=token,
                    rand=jitter,
                    metrics=plan.metrics,
                )
            except FirestoreError:
                run.failed += 1
            else:
                run.succeeded += 1
                run.latencies_us.append(clock.now_us - start)
        group.catch_up()
        lag_samples.append(group.replication_lag_us())
        clock.advance(rand.randint(1_000, 8_000))
        database.pump_realtime()

    _uninstall(database)
    _drain(database, rand)
    connection.close()
    group.catch_up()

    caught_up = all(
        replica.applied_index == len(group.log)
        for replica in group.replicas.values()
    )
    applied = _applied_tokens(database, tokens)
    counter = database.lookup("docs/counter")
    actual = (counter.data or {}).get("n", 0)
    run.exactly_once = actual == len(applied) and run.succeeded <= len(applied)
    truth = {
        str(doc.path): doc.data
        for doc in database.run_query(database.query("docs")).documents
    }
    run.converged = caught_up and view == truth
    run.extra = {
        "failovers": group.failovers,
        "final_term": group.term,
        "final_leader": group.leader_region,
        "unavailability_us": group.unavailability_us,
        "log_entries": len(group.log),
        "ledger_applied": len(applied),
        "counter": actual,
        "replication_lag_p99_us": percentile_or(lag_samples, 99),
        "lag_samples_us": lag_samples,
    }
    _attach_critpath(run, tracer)


def _overload_sidecar(
    plan: FaultPlan, seed: int, ops: int, run: ChaosRun, label: str
) -> dict:
    """The functional consistency phase of an overload scenario.

    The storm exercises the serving fleet, which records no histories;
    this sidecar commits through the full stack under the same fault
    plan so ``repro.check``, exactly-once accounting, and listener
    convergence all have something real to judge. It runs *after* the
    kernel storm because ``commit_with_retry`` advances the wall clock,
    which is illegal inside kernel callbacks.
    """
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService
    from repro.core.values import increment
    from repro.errors import FirestoreError

    rand = SimRandom(seed).fork(f"chaos-{label}-sidecar")
    jitter = retry_stream(f"chaos-{label}:{seed}")
    service = FirestoreService(multi_region=False)
    database = service.create_database(label)
    install(plan, database)
    clock = service.clock

    view: dict = {}
    connection = database.connect()

    def apply(delta) -> None:
        for doc in delta.documents:
            view[str(doc.path)] = doc.data
        for path in delta.removed:
            view.pop(str(path), None)

    connection.listen(database.query("docs"), apply)

    tokens: list[str] = []
    acked = 0
    for op in range(ops):
        clock.advance(rand.randint(1_000, 10_000))
        token = f"chaos-{label}:{seed}:{op}"
        tokens.append(token)
        writes = [
            set_op(f"docs/d{rand.randint(0, 3)}", {"v": op}),
            set_op("docs/counter", {"n": increment(1)}),
        ]
        run.attempted += 1
        start = clock.now_us
        try:
            commit_with_retry(
                database,
                writes,
                token=token,
                rand=jitter,
                metrics=plan.metrics,
            )
        except FirestoreError:
            run.failed += 1
        else:
            acked += 1
            run.succeeded += 1
            run.latencies_us.append(clock.now_us - start)
        clock.advance(rand.randint(1_000, 8_000))
        database.pump_realtime()

    _uninstall(database)
    _drain(database, rand)
    connection.close()

    applied = _applied_tokens(database, tokens)
    counter = database.lookup("docs/counter")
    actual = (counter.data or {}).get("n", 0)
    run.exactly_once = actual == len(applied) and acked <= len(applied)
    truth = {
        str(doc.path): doc.data
        for doc in database.run_query(database.query("docs")).documents
    }
    run.converged = run.converged and view == truth
    return {"counter": actual, "ledger_applied": len(applied)}


def _overload_storm_chaos(
    plan: FaultPlan, seed: int, ops: int, run: ChaosRun
) -> None:
    """A 10x offered-load step against the graceful-degradation stack.

    The resilient fleet rides through the two-second surge: adaptive
    admission keeps the standing queue near its delay target, CoDel
    sheds what still goes stale, hedged reads (via the always-caught-up
    follower stub) cover the primary's tail, and budgeted clients back
    off on the server's hint. Judged by the OVERLOAD_SLOS goodput floor,
    shed-fairness, and post-trigger recovery. ``ops`` sizes the
    functional consistency sidecar; the storm itself has a fixed shape
    so goodput windows are comparable across seeds.
    """
    engine = SloEngine(OVERLOAD_SLOS())
    fleet = _drive_overload_fleet(
        seed,
        resilient=True,
        plan=plan,
        surge_factor=10,
        surge_start_us=3_000_000,
        surge_duration_us=2_000_000,
        hedged=True,
        slo=engine,
        trace=getattr(plan, "trace_requested", False),
    )
    run.latencies_us.extend(fleet["latencies"])
    run.attempted += fleet["attempted"]
    run.succeeded += fleet["succeeded"]
    run.failed += fleet["failed"]
    recovered = fleet["recovery_ratio"] >= _OVERLOAD_RECOVERED_RATIO
    verdicts = _judge_overload(run, engine, recovered)
    sidecar = _overload_sidecar(plan, seed, ops, run, "overload-storm")
    run.extra = {
        "fleet": _fleet_summary(fleet),
        "recovered": recovered,
        "overload_slo": verdicts,
        "sidecar": sidecar,
    }
    _attach_critpath(run, fleet.get("_tracer"))


def _retry_storm_chaos(
    plan: FaultPlan, seed: int, ops: int, run: ChaosRun
) -> None:
    """An injected error burst that provokes a client retry storm.

    For 1.5 seconds, 90% of admitted RPCs are dropped on the wire. The
    failure rate trips the per-(database, region) circuit breakers, so
    follow-on traffic fast-fails at the door instead of queueing doomed
    work; retry budgets cap the clients' amplification at ~1.1x; and
    once the burst clears, half-open probes re-close the breakers and
    goodput recovers to baseline. Judged by the same OVERLOAD_SLOS
    block as the load storm.
    """
    engine = SloEngine(OVERLOAD_SLOS())
    fleet = _drive_overload_fleet(
        seed,
        resilient=True,
        plan=plan,
        drop_burst=(3_000_000, 4_500_000, 0.9),
        slo=engine,
    )
    run.latencies_us.extend(fleet["latencies"])
    run.attempted += fleet["attempted"]
    run.succeeded += fleet["succeeded"]
    run.failed += fleet["failed"]
    recovered = fleet["recovery_ratio"] >= _OVERLOAD_RECOVERED_RATIO
    verdicts = _judge_overload(run, engine, recovered)
    sidecar = _overload_sidecar(plan, seed, ops, run, "retry-storm")
    run.extra = {
        "fleet": _fleet_summary(fleet),
        "recovered": recovered,
        "breaker_tripped": fleet["breaker_opens"] > 0,
        "overload_slo": verdicts,
        "sidecar": sidecar,
    }


def _metastable_chaos(
    plan: FaultPlan, seed: int, ops: int, run: ChaosRun
) -> None:
    """The metastable-failure demonstration: trigger, feedback, contrast.

    A brief 10x trigger (1.2s) hits two fleets. The *fragile* arm —
    no deadline propagation (the server keeps serving work its clients
    abandoned), unbudgeted hard retries, deep static admission — stays
    collapsed long after the trigger clears: sustained retry feedback
    holds offered work above capacity, the signature of a metastable
    failure. The *resilient* arm — deadlines, retry budgets, adaptive
    admission — recovers to >= 90% of baseline goodput. The resilient
    arm is the judged run; the fragile arm's collapse is recorded in
    ``extra`` and asserted by the controlled cell.
    """
    engine = SloEngine(OVERLOAD_SLOS())
    resilient = _drive_overload_fleet(
        seed,
        resilient=True,
        plan=plan,
        surge_factor=10,
        surge_start_us=3_000_000,
        surge_duration_us=1_200_000,
        slo=engine,
    )
    fragile = _drive_overload_fleet(
        seed,
        resilient=False,
        plan=None,  # the contrast arm runs fault-free: pure overload
        surge_factor=10,
        surge_start_us=3_000_000,
        surge_duration_us=1_200_000,
    )
    run.latencies_us.extend(resilient["latencies"])
    run.attempted += resilient["attempted"]
    run.succeeded += resilient["succeeded"]
    run.failed += resilient["failed"]
    recovered = resilient["recovery_ratio"] >= _OVERLOAD_RECOVERED_RATIO
    collapsed = fragile["recovery_ratio"] < _OVERLOAD_COLLAPSED_RATIO
    verdicts = _judge_overload(run, engine, recovered)
    if run.mix == "none":
        # the fragile fleet MUST stay collapsed: if it recovers, the
        # scenario no longer demonstrates anything and the cell fails
        run.converged = run.converged and collapsed
    sidecar = _overload_sidecar(plan, seed, ops, run, "metastable")
    run.extra = {
        "resilient": _fleet_summary(resilient),
        "fragile": _fleet_summary(fragile),
        "recovered": recovered,
        "collapsed": collapsed,
        "overload_slo": verdicts,
        "sidecar": sidecar,
    }


def run_chaos_oracle(
    scenario: str,
    seed: int,
    mix: str,
    ops: Optional[int] = None,
    metrics=None,
    tracer=None,
    trace: bool = False,
) -> ChaosRun:
    """One chaos run: recorded, checked, accounted.

    With ``trace=True``, scenarios that support critical-path
    attribution (``failover``, ``overload-storm``) build a clock-bound
    tracer, annotate every blocking interval with its wait cause, and
    attach the :mod:`repro.obs.critpath` summary to
    ``run.extra["critpath"]``. Tracing is pure observation: it never
    advances the clock or consumes workload randomness, so traced and
    untraced runs see identical histories.
    """
    builder, dflt = _lookup(scenario)
    if ops is None:
        ops = dflt
    plan = plan_for_mix(seed, mix, metrics=metrics, tracer=tracer)
    plan.trace_requested = trace
    run = ChaosRun(scenario=scenario, seed=seed, mix=mix, ops=ops)
    with recording() as recorders:
        builder(plan, seed, ops, run)
    for recorder in recorders:
        history = list(recorder.events)
        if not history:
            continue
        run.histories.append(history)
        run.violations.extend(check_history(history))
    run.injected = dict(sorted(plan.injected.items()))
    run.fault_log = list(plan.log)
    return run


ORACLE = {
    "commit": (_commit_chaos, 12),
    "ycsb": (_ycsb_chaos, 40),
    "realtime-fanout": (_fanout_chaos, 14),
    "failover": (_failover_chaos, 20),
    "overload-storm": (_overload_storm_chaos, 8),
    "retry-storm": (_retry_storm_chaos, 8),
    "metastable": (_metastable_chaos, 8),
}


def _lookup(scenario: str):
    return ORACLE[scenario]


# -- the comparison ------------------------------------------------------------


def assert_equivalent(scenario, mix, seed, ops=None, traced=False):
    """Run one cell through both harnesses; returns the new run."""
    metrics = (MetricsRegistry(), MetricsRegistry()) if traced else (None, None)
    old = run_chaos_oracle(scenario, seed, mix, ops, metrics[0], trace=traced)
    new = run_chaos(scenario, seed, mix, ops, metrics[1], trace=traced)
    assert new.to_dict() == old.to_dict()
    assert new.histories == old.histories
    assert new.fault_log == old.fault_log
    if traced:
        assert metrics[1].to_dict() == metrics[0].to_dict()
    return new


def test_the_oracle_covers_every_scenario():
    # every chaos-plan entry of the table: all but the checker's own
    # isolation and anomaly-* scenarios
    plan_entries = {
        name
        for name in SCENARIOS
        if name != "isolation" and not name.startswith("anomaly-")
    }
    assert set(ORACLE) == plan_entries
    for name, (_builder, ops) in ORACLE.items():
        assert SCENARIOS[name][1] == ops


@settings(max_examples=20, deadline=None)
@given(
    scenario=st.sampled_from(sorted(ORACLE)),
    mix=st.sampled_from(sorted(FAULT_MIXES)),
    seed=st.integers(0, 50),
    ops=st.integers(1, 12),
)
def test_one_harness_matches_the_copies(scenario, mix, seed, ops):
    assert_equivalent(scenario, mix, seed, ops)


@pytest.mark.parametrize("mix", ["none", "chaos", "region-outage"])
@pytest.mark.parametrize("scenario", sorted(ORACLE))
def test_every_scenario_agrees_at_its_default_size(scenario, mix):
    run = assert_equivalent(scenario, mix, seed=1)
    assert run.attempted > 0


@pytest.mark.parametrize(
    "scenario", ["failover", "overload-storm", "commit", "realtime-fanout"]
)
def test_traced_runs_agree_including_critpath(scenario):
    run = assert_equivalent(scenario, "chaos", seed=3, traced=True)
    if scenario in ("failover", "overload-storm"):
        assert run.extra["critpath"]


# -- the named mutants ---------------------------------------------------------


def test_fanout_pauses_at_most_8ms_before_each_commit():
    """Fanout draws ``randint(1_000, 8_000)`` on both sides of a commit."""
    run = assert_equivalent("realtime-fanout", "none", seed=0, ops=3)
    assert run.succeeded == 3


def test_sidecar_writes_four_documents():
    """The overload sidecar commits to ``docs/d0``–``d3``, not ``d4``.

    ``randint(0, 3)`` and ``randint(0, 4)`` draw the same three bits and
    agree unless those read 4, which seed 1 does on its third op (seed 0
    never does in eight)."""
    run = assert_equivalent("retry-storm", "none", seed=1, ops=8)
    assert run.extra["sidecar"]["ledger_applied"] == 8


def test_fanout_never_reads_the_counter():
    """Fanout commits no counter and looks none up: its history's reads
    are the ledger's and the ``feed`` query's only."""
    run = assert_equivalent("realtime-fanout", "network", seed=2, ops=10)
    assert "counter" not in run.extra


def test_fragile_arm_runs_fault_free():
    """Metastable's contrast arm is pure overload: under a fault mix,
    only the judged arm and the sidecar consult the plan."""
    run = assert_equivalent("metastable", "chaos", seed=0, ops=2)
    assert run.injected


# -- isolation: pinned by the previous implementation's histories -------------

#: md5 of the history JSONL the previous implementation recorded,
#: per (mode, seed), for ``run_chaos("isolation", seed, "none", mode=mode)``
ISOLATION_MD5 = {
    ("none", 0): "d39b77b6ae7db2899f448e3003e18970",
    ("none", 1): "c74bf11fbaf01662b251b37fd2724b7c",
    ("none", 2): "8cade8cf0de6983698287c97ecf80d23",
    ("none", 3): "7c2983c82bb824e1e01f0c5f2beb21f2",
    ("none", 4): "1e5dfbac0bcd71789d546b149f606a67",
    ("none", 5): "c749ce4e881ac4ce7cc384dcb326f749",
    ("none", 6): "58cc34cdd755284e581993a5699d467b",
    ("none", 7): "7403a6607adf745693620ea81932cb60",
    ("none", 8): "26abf33b1ff4c1dbbe250b54c087a4a7",
    ("none", 9): "12deaef80a8dc044f4ca0bed949a7058",
    ("delay", 0): "f95f5b5b33f834c52aa85f91b0755681",
    ("delay", 1): "b72d1886bffb757a846d7ccdc67bbf54",
    ("delay", 2): "6fbe02849ca78473236d984228b5f719",
    ("delay", 3): "1b848efeecefe6a559da620521e72ed9",
    ("delay", 4): "76a36619441b0ae6a3a0d0ad225530eb",
    ("delay", 5): "f0455b6554c01024191ceb41f99c50ca",
    ("delay", 6): "d1b278fcb7db4d6dad7da631c9d7f259",
    ("delay", 7): "5a003404e106d876c20e8ac9f4f5c95d",
    ("delay", 8): "ccff7de50c8fdd1096a62f611e5ec348",
    ("delay", 9): "0bf8016326d6c90b5bf7c17d0468a0ba",
}


def test_isolation_histories_match_the_previous_injector():
    unknown = 0
    for (mode, seed), expected in ISOLATION_MD5.items():
        run = run_chaos("isolation", seed, "none", mode=mode)
        assert not run.violations
        log = history_jsonl(run.histories)
        unknown += log.count('"k":"unknown"')
        assert hashlib.md5(log.encode()).hexdigest() == expected, (mode, seed)
    # the one-slot plan really fires: unknown-outcome commits happen
    assert unknown == 35


# -- structure -----------------------------------------------------------------


def test_one_commit_loop_one_storm_driver_one_commit_fault_path():
    source = inspect.getsource(chaos)
    assert source.count("commit_with_retry(") == 1
    assert source.count("SloEngine(OVERLOAD_SLOS())") == 1
    for removed in ("def apply", "def make_apply", "with recording()"):
        assert removed not in source
    # the one recording/checking block, next to ``recording``
    assert "with recording()" in inspect.getsource(record_and_check)
    # spelled split so this file does not match its own search
    gone = ("commit_fault" + "_injector", "inject_unknown" + "_outcome")
    root = Path(__file__).resolve().parents[2]
    for path in sorted(root.glob("src/**/*.py")) + sorted(root.glob("tests/**/*.py")):
        text = path.read_text(encoding="utf-8")
        for name in gone:
            assert name not in text, f"{name} in {path.relative_to(root)}"
