"""The chaos scenario runner: seeds × fault mixes, checked end to end.

Each chaos scenario is a seeded build function that drives a slice of
the reproduction with a :class:`repro.faults.plan.FaultPlan` installed,
then verifies the wreckage three ways:

1. **History checking** — the run executes inside a
   :class:`repro.check.history.recording` context and every recorded
   history goes through the full :func:`repro.check.checker.check_history`
   suite. Faults may slow the system down; they must never make it
   inconsistent.
2. **Exactly-once accounting** — every commit carries an idempotency
   token, so the Backend's commit ledger is ground truth for which
   commits applied. A counter document incremented by every commit must
   equal the number of ledger entries: a retried commit that applied
   twice (or a lost one counted as applied) is caught arithmetically.
3. **Recovery convergence** — after the fault window the plan is
   uninstalled and the run drains; listeners must converge to the server
   state through the Changelog's out-of-sync/resync fail-safe.

Every functional scenario drives its commits through one loop,
:func:`_commit_ops`: advance the clock, build the idempotency token
``"{name}:{seed}:{op}"``, commit a document write (plus, optionally, the
shared ``docs/counter`` increment) through
:func:`repro.faults.retry.commit_with_retry`, count the outcome, advance
the clock again and pump the Real-time Cache. A scenario's own moves hook
in around the commit: ``before(op)`` runs after the first clock advance
(the commit scenario's client flap, failover's mid-run leader outage) and
``after()`` right after the commit (failover's catch-up and lag sample).
The overload scenarios share one storm driver, :func:`_storm_chaos`.

:data:`SCENARIOS` is the one scenario table: these seven, plus the
``isolation`` transfer workload and the four ``anomaly-*`` toy stores
(:mod:`repro.check.anomalies`) the checker must flag. Every entry is
built ``(plan, seed, ops, run)`` and run by :func:`run_chaos` into one
:class:`ChaosRun`; ``run.mode`` carries the explorer's schedule
perturbation (``none`` or ``delay``), which ``isolation``,
``anomaly-lost-update``, ``anomaly-write-skew`` and
``anomaly-non-monotonic-ts`` consult and the rest (``ycsb`` and
``anomaly-stale-notification`` among them) ignore.

The sweep (:func:`sweep`, ``python -m repro.faults``) runs the scenario
matrix and emits an availability / tail-latency / injected-fault summary
suitable for ``BENCH_faults.json``; :func:`shrink` cuts a violating run
down to a minimal :class:`Reproducer`. Same seed + same mix + same mode
is byte-identical (:func:`replay_digest` asserts it via the replay
harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from repro.check import anomalies
from repro.check.checker import Violation
from repro.check.history import record_and_check
from repro.faults.plan import FAULT_MIXES, FaultPlan, install, plan_for_mix
from repro.faults.retry import RetryBudget, commit_with_retry, retry_stream
from repro.obs.slo import OVERLOAD_SLOS, SloEngine, SloSpec
from repro.obs.stats import percentile_or
from repro.obs.tracer import NULL_TRACER
from repro.sim.rand import SimRandom

#: availability floor a chaos cell must clear under injected faults —
#: deliberately loose (faults *should* fail some operations); the hard
#: objectives (convergence, exactly-once, consistency) have no budget
CHAOS_AVAILABILITY_TARGET = 0.5


@dataclass
class ChaosRun:
    """One chaos scenario execution and everything it proved."""

    scenario: str
    seed: int
    mix: str
    ops: int
    #: the explorer's schedule perturbation (``repro.check.explorer``)
    mode: str = "none"
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    #: per-op sim-time latencies of successful operations (includes
    #: retry backoff, which is the point)
    latencies_us: list[int] = dataclass_field(default_factory=list)
    #: site -> injected count, straight from the plan
    injected: dict[str, int] = dataclass_field(default_factory=dict)
    #: the ordered fault log — the CI artifact for failed runs
    fault_log: list[tuple[str, dict]] = dataclass_field(default_factory=list)
    histories: list[list[dict]] = dataclass_field(default_factory=list)
    violations: list[Violation] = dataclass_field(default_factory=list)
    #: ledger-vs-counter accounting held (no double/lost application)
    exactly_once: bool = True
    #: listeners converged to server state after the recovery drain
    converged: bool = True
    #: scenario-specific extras (resync counts, YCSB percentiles, ...)
    extra: dict = dataclass_field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of attempted operations that succeeded."""
        if self.attempted == 0:
            return 1.0
        return self.succeeded / self.attempted

    @property
    def ok(self) -> bool:
        """Clean history, exact accounting, converged recovery."""
        return not self.violations and self.exactly_once and self.converged

    @property
    def cell(self) -> str:
        """``scenario/mix``, plus ``/mode`` for a perturbed schedule."""
        cell = f"{self.scenario}/{self.mix}"
        return cell if self.mode == "none" else f"{cell}/{self.mode}"

    def latency_percentile(self, p: float) -> int:
        """The p-th percentile of successful-op latency (0 if none)."""
        return percentile_or(self.latencies_us, p)

    def slo_verdicts(self, window_us: int = 60_000_000) -> dict:
        """The run's three verification verdicts, judged as SLOs.

        Convergence, exactly-once and history consistency are
        ``convergence``-kind objectives — a single bad event in the
        window fails them, there is no error budget. Availability is a
        conventional ratio objective against the (deliberately loose)
        :data:`CHAOS_AVAILABILITY_TARGET`.
        """
        specs = [
            SloSpec(
                name="chaos.availability",
                kind="availability",
                target=CHAOS_AVAILABILITY_TARGET,
                window_us=window_us,
                stream="chaos.request",
            ),
            SloSpec(
                name="chaos.convergence",
                kind="convergence",
                target=1.0,
                window_us=window_us,
                stream="chaos.converged",
            ),
            SloSpec(
                name="chaos.exactly_once",
                kind="convergence",
                target=1.0,
                window_us=window_us,
                stream="chaos.applied",
            ),
            SloSpec(
                name="chaos.consistency",
                kind="convergence",
                target=1.0,
                window_us=window_us,
                stream="chaos.history",
            ),
        ]
        engine = SloEngine(specs)
        # the run is over; land every event in the window being judged
        t = max(0, window_us - 1)
        for _ in range(self.succeeded):
            engine.record("chaos.request", t, True)
        for _ in range(self.failed):
            engine.record("chaos.request", t, False)
        engine.record("chaos.converged", t, self.converged)
        engine.record("chaos.applied", t, self.exactly_once)
        engine.record("chaos.history", t, not self.violations)
        return engine.verdict_block(window_us)

    def to_dict(self) -> dict:
        """JSON-serializable summary (stable key order for replay); the
        ``mode`` key appears only for a perturbed schedule."""
        summary = {
            "scenario": self.scenario,
            "seed": self.seed,
            "mix": self.mix,
            "ops": self.ops,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "availability": round(self.availability, 6),
            "latency_p50_us": self.latency_percentile(50),
            "latency_p99_us": self.latency_percentile(99),
            "injected": dict(sorted(self.injected.items())),
            "total_injected": sum(self.injected.values()),
            "violations": [str(v) for v in self.violations],
            "exactly_once": self.exactly_once,
            "converged": self.converged,
            "extra": dict(sorted(self.extra.items())),
            "slo": self.slo_verdicts(),
        }
        if self.mode != "none":
            summary["mode"] = self.mode
        return summary


# -- shared verification helpers ---------------------------------------------


def _uninstall(database) -> None:
    """End the fault window: the recovery drain runs fault-free."""
    database.layout.spanner.fault_plan = None
    database.realtime.fault_plan = None
    database.fault_plan = None
    replication = getattr(database.layout.spanner, "replication", None)
    if replication is not None:
        replication.fault_plan = None
        # region outages/partitions end with the fault window; followers
        # catch up during the recovery drain
        replication.heal()


def _applied_tokens(database, tokens: list[str]) -> set[str]:
    """Which idempotency tokens the commit ledger proves were applied."""
    from repro.core.layout import COMMIT_LEDGER

    spanner = database.layout.spanner
    read_ts = spanner.current_timestamp()
    applied = set()
    for token in tokens:
        row = spanner.snapshot_read(
            COMMIT_LEDGER, database.layout.ledger_key(token), read_ts
        )
        if row is not None:
            applied.add(token)
    return applied


def _scenario_tracer(plan: FaultPlan, clock, seed: int):
    """A scenario-owned Tracer when critical-path attribution was
    requested (``run_chaos(..., trace=True)``), else ``None``.

    Scenarios build their own services and clocks, so the tracer is
    created here — bound to the scenario clock, id stream forked off a
    dedicated name so tracing never perturbs workload randomness — and
    installed on the plan so fault hooks can tag in-flight spans.
    """
    if not getattr(plan, "trace_requested", False):
        return None
    from repro.obs.tracer import Tracer

    tracer = Tracer(clock, SimRandom(seed).fork("critpath-trace"))
    plan.tracer = tracer
    return tracer


def _attach_critpath(run: ChaosRun, tracer) -> None:
    """Run critical-path analysis over the scenario's trace and attach
    the JSON-ready summary to ``run.extra["critpath"]``.

    The summary rides inside :meth:`ChaosRun.to_dict`, so same-seed
    byte-identity of the critpath artifact falls out of the existing
    replay harness for free.
    """
    if tracer is None:
        return
    from repro.obs.critpath import analyze
    from repro.obs.sampling import TailSampler

    run.extra["critpath"] = analyze(tracer, sampler=TailSampler())


def _drain(database, rand: SimRandom, pumps: int = 16) -> None:
    """Advance past the Accept-timeout horizon, pumping the RTC.

    A dropped Accept only surfaces once the prepare's commit window plus
    the Changelog's timeout margin has passed (up to ~6s of sim time), so
    recovery needs generous drains before convergence is judged.
    """
    clock = database.service.clock
    for _ in range(pumps):
        clock.advance(500_000 + rand.randint(0, 10_000))
        database.pump_realtime()


class _View(dict):
    """A listener's materialized view: path -> data, fed by its deltas."""

    def __call__(self, delta) -> None:
        for doc in delta.documents:
            self[str(doc.path)] = doc.data
        for path in delta.removed:
            self.pop(str(path), None)


def _counter(database) -> int:
    """The shared ``docs/counter`` value every counted commit increments."""
    return (database.lookup("docs/counter").data or {}).get("n", 0)


def _query_truth(database, collection: str) -> dict:
    """The server state of ``collection``: path -> data."""
    return {
        str(doc.path): doc.data
        for doc in database.run_query(database.query(collection)).documents
    }


def _commit_ops(
    plan: FaultPlan,
    run: ChaosRun,
    database,
    rand: SimRandom,
    name: str,
    seed: int,
    ops: int,
    *,
    path: str,
    docs: int,
    counter: bool,
    pause_us: int,
    before: Optional[Callable[[int], None]] = None,
    after: Optional[Callable[[], None]] = None,
    trace=NULL_TRACER,
) -> tuple[list[str], int]:
    """The commit-under-faults loop every functional scenario runs.

    Each op sleeps ``randint(1_000, pause_us)``, runs ``before(op)``,
    commits ``{path}{randint(0, docs - 1)}`` (plus the ``docs/counter``
    increment when ``counter``) under the token ``"{name}:{seed}:{op}"``
    inside a ``chaos.op`` span of ``trace``, runs ``after()``, sleeps
    ``randint(1_000, 8_000)`` and pumps the Real-time Cache. Returns the
    tokens issued and how many commits were acknowledged.
    """
    from repro.core.backend import set_op
    from repro.core.values import increment
    from repro.errors import FirestoreError

    clock = database.service.clock
    jitter = retry_stream(f"{name}:{seed}")
    attributes = {"operation": "commit", "database_id": database.database_id}
    tokens: list[str] = []
    acked = 0
    for op in range(ops):
        clock.advance(rand.randint(1_000, pause_us))
        if before is not None:
            before(op)
        token = f"{name}:{seed}:{op}"
        tokens.append(token)
        writes = [set_op(f"{path}{rand.randint(0, docs - 1)}", {"v": op})]
        if counter:
            writes.append(set_op("docs/counter", {"n": increment(1)}))
        run.attempted += 1
        start = clock.now_us
        with trace.span("chaos.op", attributes=attributes):
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
        if after is not None:
            after()
        clock.advance(rand.randint(1_000, 8_000))
        database.pump_realtime()
    return tokens, acked


# -- scenarios ---------------------------------------------------------------


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
    from repro.core.firestore import FirestoreService

    rand = SimRandom(seed).fork("chaos-commit")
    service = FirestoreService(multi_region=False)
    database = service.create_database("chaos")
    install(plan, database)

    deltas: list = []
    connection = database.connect()
    connection.listen(database.query("docs"), deltas.append)
    client = MobileClient(database, client_id="chaos-device")
    offline_until = -1

    def flap(op: int) -> None:
        # the device: flap-driven offline writes replayed on reconnect
        nonlocal offline_until
        if client.is_online and plan.decide("client.flap") is not None:
            client.disconnect()
            offline_until = op + rand.randint(1, 3)
        client.set(f"flap/m{op}", {"op": op})
        if not client.is_online and op >= offline_until:
            client.connect()

    # the server path: a doc write + a non-idempotent increment
    tokens, acked = _commit_ops(
        plan, run, database, rand, "chaos-commit", seed, ops,
        path="docs/d", docs=5, counter=True, pause_us=10_000, before=flap,
    )

    # recovery window: faults stop, everything must settle
    _uninstall(database)
    if not client.is_online:
        client.connect()
    client.wait_for_pending_writes()
    _drain(database, rand)
    connection.close()

    applied = _applied_tokens(database, tokens)
    actual = _counter(database)
    # every acknowledged commit must be in the ledger
    run.exactly_once = actual == len(applied) and acked <= len(applied)
    flap_docs = _query_truth(database, "flap")
    run.converged = client.pending_writes == 0 and all(
        (data or {}).get("op") == int(path.rsplit("/m", 1)[1])
        for path, data in flap_docs.items()
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
    # whole-run counts on both sides: every issued request completed,
    # was rejected at admission, or failed
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
    from repro.core.firestore import FirestoreService

    rand = SimRandom(seed).fork("chaos-fanout")
    service = FirestoreService(multi_region=False)
    database = service.create_database("fanout")
    install(plan, database)

    views = [_View() for _ in range(6)]
    connection = database.connect()
    for view in views:
        connection.listen(database.query("feed"), view)

    tokens, acked = _commit_ops(
        plan, run, database, rand, "chaos-fanout", seed, ops,
        path="feed/p", docs=4, counter=False, pause_us=8_000,
    )

    _uninstall(database)
    _drain(database, rand)
    connection.close()

    truth = _query_truth(database, "feed")
    run.converged = all(view == truth for view in views)
    applied = _applied_tokens(database, tokens)
    run.exactly_once = acked <= len(applied)
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
    from repro.core.firestore import FirestoreService
    from repro.sim.clock import SimClock

    rand = SimRandom(seed).fork("chaos-failover")
    sim_clock = SimClock()
    tracer = _scenario_tracer(plan, sim_clock, seed)
    if tracer is not None:
        service = FirestoreService(
            multi_region=True, clock=sim_clock, tracer=tracer
        )
    else:
        service = FirestoreService(multi_region=True)
    database = service.create_database("failover")
    install(plan, database)
    group = database.layout.spanner.replication
    # short lease: one-to-two failed commits' worth of retry backoff
    group.lease_us = 150_000 + rand.randint(0, 250_000)
    group.lease_expiry_us = service.clock.now_us + group.lease_us

    view = _View()
    connection = database.connect()
    connection.listen(database.query("docs"), view)

    def outage(op: int) -> None:
        if op == ops // 2:
            # the guaranteed failover: kill whatever region leads now
            # (armed faults consume no rate draws, so the mix's own
            # decisions are unperturbed)
            plan.arm(
                "region.outage",
                region=group.leader_region,
                duration_us=1_500_000,
            )

    lag_samples: list[int] = []

    def catch_up() -> None:
        group.catch_up()
        lag_samples.append(group.replication_lag_us())

    tokens, acked = _commit_ops(
        plan, run, database, rand, "chaos-failover", seed, ops,
        path="docs/d", docs=5, counter=True, pause_us=10_000,
        before=outage, after=catch_up,
        trace=tracer or NULL_TRACER,
    )

    _uninstall(database)
    _drain(database, rand)
    connection.close()
    group.catch_up()

    caught_up = all(
        replica.applied_index == len(group.log)
        for replica in group.replicas.values()
    )
    applied = _applied_tokens(database, tokens)
    actual = _counter(database)
    run.exactly_once = actual == len(applied) and acked <= len(applied)
    run.converged = caught_up and view == _query_truth(database, "docs")
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


# -- overload scenarios (paper section IV-C: graceful degradation) -----------

#: fleet shape shared by the overload scenarios: four symmetric tenants
#: against a single backend task at 1ms/op (1000 ops/s capacity), so a
#: 10x offered-load step is a genuine 2x overload of the fleet
_OVERLOAD_TENANTS = ("t0", "t1", "t2", "t3")
_OVERLOAD_BASE_INTERVAL_US = 20_000  # 50 ops/s per tenant, 200/s total
_OVERLOAD_CPU_COST_US = 1_000
#: how long a client waits for an answer before giving up on an attempt
_OVERLOAD_PATIENCE_US = 700_000
#: arrivals stop here; the goodput windows live inside this horizon
_OVERLOAD_END_US = 12_000_000
#: extra kernel time for straggler retries to settle after arrivals stop
_OVERLOAD_DRAIN_US = 8_000_000
#: recovery = post-trigger goodput back above this fraction of baseline
_OVERLOAD_RECOVERED_RATIO = 0.9
#: collapse = post-trigger goodput still below this fraction of baseline
_OVERLOAD_COLLAPSED_RATIO = 0.5


class _FollowerStub:
    """Minimal ReplicaGroup duck-type: a follower that is always caught
    up, so hedged reads always have an eligible backup target without
    dragging the full replication machinery into the storm."""

    __slots__ = ("leader_region", "follower_region")

    def __init__(self, leader_region: str, follower_region: str):
        self.leader_region = leader_region
        self.follower_region = follower_region

    def route_read(self, client_region: str, staleness_bound_us: int):
        return self.follower_region, None


def _drive_overload_fleet(
    seed: int,
    *,
    resilient: bool,
    plan: Optional[FaultPlan] = None,
    surge_factor: int = 1,
    surge_start_us: int = 3_000_000,
    surge_duration_us: int = 2_000_000,
    drop_burst: Optional[tuple[int, int, float]] = None,
    hedged: bool = False,
    slo: Optional[SloEngine] = None,
    trace: bool = False,
) -> dict:
    """Drive the shared overload fleet entirely on the event kernel.

    Four tenants offer a steady 200 ops/s of GETs to a one-task backend
    (1000 ops/s capacity); ``surge_factor`` multiplies the arrival rate
    during the trigger window and ``drop_burst`` = (start, end, rate)
    injects an ``rpc.drop`` error burst instead. Every client is an
    attempt state machine scheduled with ``kernel.after`` — the sim
    clock is never advanced from inside a callback.

    The two arms differ exactly where the paper's degradation machinery
    sits. *Resilient* clients propagate their deadline on the RPC
    envelope, pace retries through a :class:`RetryBudget`, honor the
    server's backoff hint, and run against the adaptive-admission/CoDel/
    breaker stack. *Fragile* clients time out locally without telling
    the server (so abandoned work is still served — zombie work), retry
    hard on a fixed short pause with no budget, and run against a deep
    static admission queue: the classic metastable-failure recipe.

    Returns a JSON-friendly stats dict; ``latencies`` holds the raw
    per-op success latencies for the caller to consume.
    """
    from repro.service.admission import AdmissionConfig
    from repro.service.cluster import ClusterConfig, ServingCluster
    from repro.service.overload import OverloadConfig
    from repro.service.rpc import RpcKind

    if resilient:
        overload_config = OverloadConfig(enabled=True, initial_limit=64)
        admission_config = AdmissionConfig()
    else:
        # the fragile arm: no degradation layer and a queue deep enough
        # that admitted work is always served, however stale it is by then
        overload_config = OverloadConfig(enabled=False)
        admission_config = AdmissionConfig(shed_queue_depth=5_000)
    tracer = None
    trace_kernel = None
    if trace:
        # critical-path attribution: the tracer shares the cluster's
        # clock, so the kernel is built first and handed in
        from repro.obs.tracer import Tracer
        from repro.sim.events import EventKernel

        trace_kernel = EventKernel()
        tracer = Tracer(
            trace_kernel.clock, SimRandom(seed).fork("critpath-trace")
        )
    cluster = ServingCluster(
        kernel=trace_kernel,
        tracer=tracer,
        config=ClusterConfig(
            multi_region=False,
            frontend_tasks=2,
            backend_tasks=1,
            autoscale_frontend=False,
            autoscale_backend=False,
            admission=admission_config,
            overload=overload_config,
            seed=seed,
        )
    )
    cluster.fault_plan = plan
    if hedged:
        for tenant in _OVERLOAD_TENANTS:
            cluster.router.attach_replicas(
                tenant, _FollowerStub("us-east", "us-central")
            )

    kernel = cluster.kernel
    clock = kernel.clock
    arm = "resilient" if resilient else "fragile"
    rand = SimRandom(seed).fork(f"overload-fleet-{arm}")
    budgets = (
        {tenant: RetryBudget() for tenant in _OVERLOAD_TENANTS}
        if resilient
        else None
    )
    max_attempts = 4 if resilient else 10
    stats = {
        "attempted": 0,
        "succeeded": 0,
        "failed": 0,
        "zombie_completions": 0,
        "abandoned_waits": 0,
        "budget_stopped": 0,
        "sheds": {tenant: 0 for tenant in _OVERLOAD_TENANTS},
    }
    success_times: list[int] = []
    latencies: list[int] = []
    open_ops = [0]

    def start_op(tenant: str) -> None:
        stats["attempted"] += 1
        open_ops[0] += 1
        born = clock._now_us
        give_up_us = born + _OVERLOAD_PATIENCE_US
        state = [0, False]  # [attempts made, resolved]
        op_span = (
            tracer.start_span(
                "chaos.op",
                attributes={"operation": "get", "database_id": tenant},
            )
            if tracer is not None
            else None
        )
        op_ctx = op_span.context if op_span is not None else None

        def resolve(success: bool) -> None:
            if state[1]:
                return
            state[1] = True
            open_ops[0] -= 1
            now = clock._now_us
            if op_span is not None:
                op_span.set_attribute("ok", success)
                op_span.end()
            if success:
                stats["succeeded"] += 1
                success_times.append(now)
                latencies.append(now - born)
            else:
                stats["failed"] += 1
            if slo is not None:
                slo.record("overload.goodput", now, success)

        def attempt() -> None:
            if state[1]:
                return
            if resilient and clock._now_us >= give_up_us:
                resolve(False)
                return
            state[0] += 1
            waiting = [True]

            def on_complete(latency_us: int) -> None:
                if not waiting[0]:
                    # the client already walked away: zombie work, served
                    # for nobody — the fuel of a metastable failure
                    stats["zombie_completions"] += 1
                    return
                waiting[0] = False
                if budgets is not None:
                    budgets[tenant].on_success()
                resolve(True)

            def on_reject(reason: str) -> None:
                if not waiting[0]:
                    return
                waiting[0] = False
                stats["sheds"][tenant] += 1
                if slo is not None:
                    slo.record_share(
                        "overload.shed", clock._now_us, tenant, 1
                    )
                retry_later()

            def abandon() -> None:
                # fragile clients time out locally without telling the
                # server (no deadline on the envelope): the attempt's
                # work stays queued and will be served anyway
                if not waiting[0] or state[1]:
                    return
                waiting[0] = False
                stats["abandoned_waits"] += 1
                retry_later()

            def retry_later() -> None:
                if state[1]:
                    return
                if state[0] >= max_attempts:
                    resolve(False)
                    return
                if resilient:
                    if not budgets[tenant].try_spend():
                        stats["budget_stopped"] += 1
                        resolve(False)
                        return
                    base = min(500_000.0, 25_000.0 * 2.0 ** (state[0] - 1))
                    pause = max(1, int(base * rand.uniform(0.5, 1.0)))
                    hint = cluster.retry_after_hint_us()
                    if hint > pause:
                        pause = hint
                else:
                    pause = 20_000
                if tracer is None:
                    kernel.after(pause, attempt, label="overload-retry")
                else:
                    # annotate the pause as a retry_backoff wait on the
                    # op's root span when the retry actually fires (an
                    # op resolved meanwhile never waited on it)
                    paused_from = clock._now_us

                    def paced_attempt() -> None:
                        if not state[1]:
                            tracer.record_wait(
                                op_ctx,
                                "retry_backoff",
                                start_us=paused_from,
                                end_us=clock._now_us,
                            )
                        attempt()

                    kernel.after(pause, paced_attempt, label="overload-retry")

            cluster.submit(
                tenant,
                RpcKind.GET,
                on_complete,
                cpu_cost_us=_OVERLOAD_CPU_COST_US,
                on_reject=on_reject,
                deadline_us=give_up_us if resilient else None,
                trace_parent=op_ctx,
            )
            if not resilient:
                kernel.after(
                    _OVERLOAD_PATIENCE_US, abandon, label="overload-patience"
                )

        attempt()

    def spawn(tenant: str) -> None:
        now = clock._now_us
        if now >= _OVERLOAD_END_US:
            return
        start_op(tenant)
        interval = _OVERLOAD_BASE_INTERVAL_US
        if (
            surge_factor > 1
            and surge_start_us <= now < surge_start_us + surge_duration_us
        ):
            interval //= surge_factor
        delay = max(1, int(interval * rand.uniform(0.9, 1.1)))
        kernel.after(delay, lambda: spawn(tenant), label="overload-arrival")

    for offset, tenant in enumerate(_OVERLOAD_TENANTS):
        kernel.at(
            1 + offset * 1_250,
            lambda t=tenant: spawn(t),
            label="overload-arrival",
        )

    if drop_burst is not None:
        burst_start, burst_end, burst_rate = drop_burst
        resting_rate = [0.0]

        def raise_rate() -> None:
            resting_rate[0] = plan.rates.get("rpc.drop", 0.0)
            plan.rates["rpc.drop"] = burst_rate

        def restore_rate() -> None:
            plan.rates["rpc.drop"] = resting_rate[0]

        kernel.at(burst_start, raise_rate, label="overload-burst")
        kernel.at(burst_end, restore_rate, label="overload-burst")

    kernel.run_until(_OVERLOAD_END_US + _OVERLOAD_DRAIN_US)

    per_second = [0] * (_OVERLOAD_END_US // 1_000_000)
    for t in success_times:
        index = t // 1_000_000
        if index < len(per_second):
            per_second[index] += 1
    surge_end_s = (surge_start_us + surge_duration_us) // 1_000_000
    baseline = per_second[1:3]
    recovery = per_second[8:11]
    baseline_per_s = sum(baseline) / len(baseline)
    recovery_per_s = sum(recovery) / len(recovery)
    ratio = recovery_per_s / baseline_per_s if baseline_per_s else 0.0

    overload = cluster.overload
    breakers = cluster.router.breakers
    stats.update(
        {
            "arm": arm,
            "unresolved": open_ops[0],
            "per_second_goodput": per_second,
            "surge_end_s": surge_end_s,
            "baseline_per_s": round(baseline_per_s, 3),
            "recovery_per_s": round(recovery_per_s, 3),
            "recovery_ratio": round(ratio, 4),
            "latency_p50_us": percentile_or(latencies, 50),
            "latency_p99_us": percentile_or(latencies, 99),
            "door_sheds": cluster.admission.shed,
            "adaptive_limit": (
                overload.limiter.limit if overload is not None else 0
            ),
            "limit_decreases": (
                overload.limiter.decreases if overload is not None else 0
            ),
            "breaker_opens": (
                breakers.total_opens() if breakers is not None else 0
            ),
            "hedges_fired": (
                overload.hedges_fired if overload is not None else 0
            ),
            "hedge_wins": overload.hedge_wins if overload is not None else 0,
            "budget_exhausted": (
                sum(b.exhausted for b in budgets.values())
                if budgets is not None
                else 0
            ),
            "latencies": latencies,
        }
    )
    if tracer is not None:
        stats["_tracer"] = tracer
    return stats


def _fleet_summary(fleet: dict) -> dict:
    """The ``extra``-block view of a fleet run (raw latencies dropped)."""
    summary = dict(fleet)
    summary.pop("latencies", None)
    summary.pop("_tracer", None)
    return summary


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
    from repro.core.firestore import FirestoreService

    rand = SimRandom(seed).fork(f"chaos-{label}-sidecar")
    service = FirestoreService(multi_region=False)
    database = service.create_database(label)
    install(plan, database)

    view = _View()
    connection = database.connect()
    connection.listen(database.query("docs"), view)

    tokens, acked = _commit_ops(
        plan, run, database, rand, f"chaos-{label}", seed, ops,
        path="docs/d", docs=4, counter=True, pause_us=10_000,
    )

    _uninstall(database)
    _drain(database, rand)
    connection.close()

    applied = _applied_tokens(database, tokens)
    actual = _counter(database)
    run.exactly_once = actual == len(applied) and acked <= len(applied)
    run.converged = run.converged and view == _query_truth(database, "docs")
    return {"counter": actual, "ledger_applied": len(applied)}


def _judge_overload(
    run: ChaosRun, engine: SloEngine, recovered: bool
) -> dict:
    """Land the recovery probe and judge the overload SLO block.

    The controlled (``none``-mix) cell also folds the verdicts into the
    run's ``converged`` flag, so a goodput/fairness/recovery miss fails
    the sweep outright; under fault mixes the block is informational.
    """
    horizon = _OVERLOAD_END_US + _OVERLOAD_DRAIN_US
    engine.record("overload.recovery", horizon - 1, recovered)
    verdicts = engine.verdict_block(horizon)
    if run.mix == "none":
        run.converged = run.converged and all(
            verdict["ok"] for verdict in verdicts.values()
        )
    return verdicts


def _storm_chaos(
    plan: FaultPlan, seed: int, ops: int, run: ChaosRun, arm: str, **shape
) -> dict:
    """Drive the resilient fleet through one storm ``shape``, judge it.

    The fleet's ops count toward the run; recovery is judged against the
    OVERLOAD_SLOS block; the functional sidecar then commits ``ops``
    times under the same plan. ``run.extra`` gets the fleet summary
    (under ``arm``), ``recovered``, the SLO verdicts and the sidecar's
    accounting. Returns the raw fleet stats.
    """
    engine = SloEngine(OVERLOAD_SLOS())
    fleet = _drive_overload_fleet(
        seed, resilient=True, plan=plan, slo=engine, **shape
    )
    run.latencies_us.extend(fleet["latencies"])
    run.attempted += fleet["attempted"]
    run.succeeded += fleet["succeeded"]
    run.failed += fleet["failed"]
    recovered = fleet["recovery_ratio"] >= _OVERLOAD_RECOVERED_RATIO
    run.extra = {
        arm: _fleet_summary(fleet),
        "recovered": recovered,
        "overload_slo": _judge_overload(run, engine, recovered),
        "sidecar": _overload_sidecar(plan, seed, ops, run, run.scenario),
    }
    _attach_critpath(run, fleet.get("_tracer"))
    return fleet


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
    _storm_chaos(
        plan, seed, ops, run, "fleet",
        surge_factor=10,
        surge_start_us=3_000_000,
        surge_duration_us=2_000_000,
        hedged=True,
        trace=getattr(plan, "trace_requested", False),
    )


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
    fleet = _storm_chaos(
        plan, seed, ops, run, "fleet", drop_burst=(3_000_000, 4_500_000, 0.9)
    )
    run.extra["breaker_tripped"] = fleet["breaker_opens"] > 0


#: the metastable trigger: a brief (1.2s) 10x surge
_METASTABLE_SURGE = {
    "surge_factor": 10,
    "surge_start_us": 3_000_000,
    "surge_duration_us": 1_200_000,
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
    _storm_chaos(plan, seed, ops, run, "resilient", **_METASTABLE_SURGE)
    # the contrast arm runs fault-free: pure overload
    fragile = metastable_run(seed, resilient=False)
    collapsed = fragile["recovery_ratio"] < _OVERLOAD_COLLAPSED_RATIO
    if run.mix == "none":
        # the fragile fleet MUST stay collapsed: if it recovers, the
        # scenario no longer demonstrates anything and the cell fails
        run.converged = run.converged and collapsed
    run.extra["fragile"] = fragile
    run.extra["collapsed"] = collapsed


def metastable_run(seed: int, resilient: bool = True) -> dict:
    """One arm of the metastable demonstration, sans chaos scaffolding.

    ``examples/overload_storm.py`` runs this twice — resilient (must
    recover) and fragile (must stay collapsed) — without the recording/
    checking overhead of the full scenario. Returns the fleet summary
    (goodput windows, recovery ratio, shed/breaker/budget counters).
    """
    return _fleet_summary(
        _drive_overload_fleet(seed, resilient=resilient, **_METASTABLE_SURGE)
    )


# -- checker scenarios: isolation and the seeded anomalies -------------------


class _UnknownOutcomeSlot:
    """The isolation scenario's fault plan: one unknown-outcome slot.

    Duck-types the ``decide`` hook of ``repro.faults.FaultPlan`` (no
    fault mix expresses it). The slot is not a queue: arming it again
    before the next commit fires overwrites the fault.
    """

    __slots__ = ("applied",)

    def __init__(self):
        self.applied: Optional[bool] = None

    def decide(self, site: str) -> Optional[dict]:
        if site != "spanner.commit_unknown" or self.applied is None:
            return None
        detail, self.applied = {"applied": self.applied}, None
        return detail


def _isolation_chaos(plan: FaultPlan, seed: int, ops: int, run: ChaosRun) -> None:
    """A transactional analogue of the paper's Fig. 11 isolation setup.

    A *culprit* issues contended two-step read-modify-write transfers and
    *bystanders* blind-write the same documents, over an
    :class:`repro.sim.events.EventKernel` whose schedule ``run.mode``
    perturbs, with seeded unknown-outcome commits pushing the Changelog
    through its out-of-sync fail-safe. (The original Fig. 11 workload is
    a pure queueing simulation with no functional transactions, so this
    recreates its contention shape on the functional stack.) The mix is
    ignored: the one fault source is the :class:`_UnknownOutcomeSlot`.
    """
    from repro.check.explorer import make_perturber
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService
    from repro.core.transaction import TransactionContext
    from repro.errors import FirestoreError
    from repro.sim.events import EventKernel

    kernel = EventKernel(perturber=make_perturber(run.mode, seed))
    service = FirestoreService(
        multi_region=False, clock=kernel.clock
    )
    database = service.create_database("iso")
    faults = _UnknownOutcomeSlot()
    database.layout.spanner.fault_plan = faults
    rand = SimRandom(seed).fork("isolation-scenario")
    accounts = 3
    for account in range(accounts):
        database.commit(
            [set_op(f"accounts/a{account}", {"balance": 100})]
        )
    deltas: list = []
    connection = database.connect()
    connection.listen(database.query("accounts"), deltas.append)

    horizon_us = kernel.now_us + max(1, ops) * 8_000 + 50_000

    def pump() -> None:
        database.pump_realtime()

    for tick in range(kernel.now_us + 3_000, horizon_us, 3_000):
        kernel.at(tick, pump, label="pump")

    def start_transfer(op: int) -> None:
        src = rand.randint(0, accounts - 1)
        dst = (src + 1 + rand.randint(0, accounts - 2)) % accounts
        ctx = TransactionContext(database.backend)
        try:
            source = ctx.get(f"accounts/a{src}")
            target = ctx.get(f"accounts/a{dst}")
        except FirestoreError:
            return
        amount = rand.randint(1, 10)

        def finish() -> None:
            if not ctx._txn.is_active:
                return
            ctx.set(
                f"accounts/a{src}",
                {"balance": (source.data or {}).get("balance", 0) - amount},
            )
            ctx.set(
                f"accounts/a{dst}",
                {"balance": (target.data or {}).get("balance", 0) + amount},
            )
            if rand.bernoulli(0.15):
                # an unknown-outcome commit (this one, or whichever
                # commits next) drives the Changelog out-of-sync fail-safe
                faults.applied = rand.bernoulli(0.5)
            try:
                ctx._commit()
            except FirestoreError:
                ctx._rollback()

        kernel.after(rand.randint(200, 4_000), finish, label="txn-finish")

    def bystander(op: int) -> None:
        account = rand.randint(0, accounts - 1)
        try:
            database.commit(
                [set_op(f"accounts/a{account}", {"balance": 100 + op})]
            )
        except FirestoreError:
            pass

    base = kernel.now_us
    for op in range(ops):
        at_us = base + op * 6_000 + rand.randint(0, 4_000)
        kernel.at(at_us, lambda op=op: start_transfer(op), label="txn-start")
        kernel.at(
            at_us + rand.randint(500, 5_000),
            lambda op=op: bystander(op),
            label="commit-bystander",
        )
    kernel.run_until(horizon_us)
    kernel.drain()
    database.pump_realtime()
    connection.close()


#: the one scenario table: name -> (builder, default ops). Every builder
#: takes ``(plan, seed, ops, run)``. The first seven drive the system
#: under the mix's FaultPlan; ``isolation`` and the ``anomaly-*`` toy
#: stores (which must violate) ignore the mix. Only ``isolation``,
#: ``anomaly-lost-update``, ``anomaly-write-skew`` and
#: ``anomaly-non-monotonic-ts`` consult ``run.mode``: no event of the
#: serving fleet under ``ycsb`` carries a label the perturber targets,
#: and ``anomaly-stale-notification`` fabricates no schedule.
SCENARIOS: dict[
    str, tuple[Callable[[FaultPlan, int, int, ChaosRun], None], int]
] = {
    "commit": (_commit_chaos, 12),
    "ycsb": (_ycsb_chaos, 40),
    "realtime-fanout": (_fanout_chaos, 14),
    "failover": (_failover_chaos, 20),
    "overload-storm": (_overload_storm_chaos, 8),
    "retry-storm": (_retry_storm_chaos, 8),
    "metastable": (_metastable_chaos, 8),
    "isolation": (_isolation_chaos, 12),
    "anomaly-lost-update": (anomalies.lost_update, 6),
    "anomaly-write-skew": (anomalies.write_skew, 6),
    "anomaly-stale-notification": (anomalies.stale_notification, 6),
    "anomaly-non-monotonic-ts": (anomalies.non_monotonic_ts, 8),
}


def _entry(scenario: str) -> tuple:
    """``SCENARIOS[scenario]``, or a ValueError naming the choices."""
    entry = SCENARIOS.get(scenario)
    if entry is None:
        raise ValueError(
            f"unknown scenario {scenario!r}; pick from {sorted(SCENARIOS)}"
        )
    return entry


def default_ops(scenario: str) -> int:
    """The scenario's default operation count."""
    return _entry(scenario)[1]


def run_chaos(
    scenario: str,
    seed: int,
    mix: str,
    ops: Optional[int] = None,
    metrics=None,
    tracer=None,
    trace: bool = False,
    *,
    mode: str = "none",
) -> ChaosRun:
    """One scenario run: recorded, checked, accounted.

    ``mode`` is the explorer's schedule perturbation (see
    :data:`SCENARIOS` for who consults it). With ``trace=True``, scenarios that support
    critical-path attribution (``failover``, ``overload-storm``) build a
    clock-bound tracer, annotate every blocking interval with its wait
    cause, and attach the :mod:`repro.obs.critpath` summary to
    ``run.extra["critpath"]``. Tracing is pure observation: it never
    advances the clock or consumes workload randomness, so traced and
    untraced runs see identical histories. An unknown ``mode`` raises
    ValueError before anything runs.
    """
    from repro.check.explorer import check_mode

    check_mode(mode)
    builder, dflt = _entry(scenario)
    if ops is None:
        ops = dflt
    plan = plan_for_mix(seed, mix, metrics=metrics, tracer=tracer)
    plan.trace_requested = trace
    run = ChaosRun(scenario=scenario, seed=seed, mix=mix, ops=ops, mode=mode)
    record_and_check(run, builder, plan, seed, ops, run)
    run.injected = dict(sorted(plan.injected.items()))
    run.fault_log = list(plan.log)
    return run


# -- the sweep ---------------------------------------------------------------


def sweep(
    scenarios: list[str],
    seeds: list[int],
    mixes: list[str],
    ops: Optional[int] = None,
    modes: tuple[str, ...] = ("none",),
) -> tuple[list[ChaosRun], dict]:
    """Run the scenarios × mixes × modes × seeds matrix; returns
    (runs, summary).

    The summary is the ``BENCH_faults.json`` payload: per-cell
    (:attr:`ChaosRun.cell`) availability and tail latency, injected-fault
    counts by site, and the three verification verdicts aggregated over
    the whole sweep.
    """
    for mix in mixes:
        if mix not in FAULT_MIXES:
            raise ValueError(
                f"unknown fault mix {mix!r}; have {sorted(FAULT_MIXES)}"
            )
    runs: list[ChaosRun] = []
    for scenario in scenarios:
        for mix in mixes:
            for mode in modes:
                for seed in seeds:
                    runs.append(run_chaos(scenario, seed, mix, ops, mode=mode))
    cells: dict[str, dict] = {}
    injected_by_site: dict[str, int] = {}
    for run in runs:
        cell = cells.setdefault(
            run.cell,
            {
                "runs": 0,
                "attempted": 0,
                "succeeded": 0,
                "failed": 0,
                "violations": 0,
                "exactly_once_failures": 0,
                "convergence_failures": 0,
                "total_injected": 0,
                "_latencies": [],
            },
        )
        cell["runs"] += 1
        cell["attempted"] += run.attempted
        cell["succeeded"] += run.succeeded
        cell["failed"] += run.failed
        cell["violations"] += len(run.violations)
        cell["exactly_once_failures"] += 0 if run.exactly_once else 1
        cell["convergence_failures"] += 0 if run.converged else 1
        cell["total_injected"] += sum(run.injected.values())
        cell["_latencies"].extend(run.latencies_us)
        for site, count in run.injected.items():
            injected_by_site[site] = injected_by_site.get(site, 0) + count
    for cell in cells.values():
        latencies = sorted(cell.pop("_latencies"))
        cell["availability"] = (
            round(cell["succeeded"] / cell["attempted"], 6)
            if cell["attempted"]
            else 1.0
        )
        for p, key in ((50, "latency_p50_us"), (99, "latency_p99_us")):
            cell[key] = percentile_or(latencies, p)
    summary = {
        "sweep": {
            "scenarios": list(scenarios),
            "mixes": list(mixes),
            "seeds": len(seeds),
            "runs": len(runs),
        },
        "violations": sum(len(run.violations) for run in runs),
        "exactly_once_failures": sum(1 for run in runs if not run.exactly_once),
        "convergence_failures": sum(1 for run in runs if not run.converged),
        "injected_by_site": dict(sorted(injected_by_site.items())),
        "cells": {key: cells[key] for key in sorted(cells)},
        "slo": sweep_slo_verdicts(runs),
    }
    return runs, summary


def sweep_slo_verdicts(runs: list[ChaosRun], window_us: int = 60_000_000) -> dict:
    """The whole sweep judged as one SLO block (every run's events pooled)."""
    merged = ChaosRun(scenario="sweep", seed=0, mix="*", ops=0)
    merged.succeeded = sum(run.succeeded for run in runs)
    merged.failed = sum(run.failed for run in runs)
    merged.converged = all(run.converged for run in runs)
    merged.exactly_once = all(run.exactly_once for run in runs)
    merged.violations = [v for run in runs for v in run.violations]
    return merged.slo_verdicts(window_us)


@dataclass(frozen=True)
class Reproducer:
    """A minimal violating run: rerun it to replay the violation."""

    scenario: str
    seed: int
    mix: str
    mode: str
    ops: int
    #: check ids of the violations the run produced
    violations: tuple[str, ...]

    def command(self) -> str:
        """The ready-to-paste rerun command."""
        return (
            f"python -m repro.faults --scenarios {self.scenario} "
            f"--mixes {self.mix} --modes {self.mode} "
            f"--seed-base {self.seed} --seeds 1 --ops {self.ops}"
        )


def shrink(run: ChaosRun) -> Reproducer:
    """Minimize a violating run: halve ops, then try dropping the mode.

    The mix is kept. Every candidate rerun is itself deterministic, so
    the returned reproducer is guaranteed to still violate.
    """
    assert run.violations, "shrink() requires a violating run"

    def rerun(mode: str, ops: int) -> ChaosRun:
        return run_chaos(run.scenario, run.seed, run.mix, ops, mode=mode)

    best = run
    # halve the operation count while the violation persists
    candidate_ops = run.ops // 2
    while candidate_ops >= 1:
        result = rerun(run.mode, candidate_ops)
        if not result.violations:
            break
        best = result
        candidate_ops //= 2
    # a reproducer that needs no perturbation is simpler still
    if best.mode != "none":
        result = rerun("none", best.ops)
        if result.violations:
            best = result
    return Reproducer(
        best.scenario,
        best.seed,
        best.mix,
        best.mode,
        best.ops,
        tuple(violation.check for violation in best.violations),
    )


def replay_digest(
    scenario: str,
    seed: int,
    mix: str,
    ops: Optional[int] = None,
    *,
    mode: str = "none",
):
    """Assert a run is byte-identical on replay (same seed, mix, mode).

    Runs the scenario twice through the replay harness, fingerprinting
    the recorded histories and the full result summary; raises
    ``SanitizerViolation`` on the first diverging byte.
    """
    from repro.analysis.replay import run_replay

    def once():
        run = run_chaos(scenario, seed, mix, ops, mode=mode)
        return {"history": run.histories, "extra": run.to_dict()}

    return run_replay(once, runs=2)
