"""Differential test: the ``_Request`` record against the closures it
replaced.

``ClosureCluster.submit`` is the previous ``ServingCluster.submit``,
code verbatim: nine nested closures sharing state through captured
variables and one-element lists. Both clusters are driven with the same
generated schedule of submits, kernel runs, task crashes and mid-flight
isolation under four wirings (plain, chaos fault plan, overload layer
with replicas so hedges fire, one isolated database), with and without
every observability plane attached, and must produce the same ordered
caller-visible log and the same counters, random-stream state and
exports.

Mutants of ``_Request`` this file kills, each also pinned by a named
deterministic test below:

- ``network_us`` captured by value at submit (an injected wire delay
  vanishes from the reported latency);
- the settled guard applied with the overload layer off (a second
  terminal outcome is swallowed, the router hears outcomes);
- the hedge token spent before the region check (databases with nowhere
  to hedge to drain the budget);
- the backend pool looked up at submit time (a database isolated while
  its request is in flight still lands on the shared pool).
"""

import inspect
import types
from typing import Callable, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FAULT_MIXES, FaultPlan
from repro.obs.export import chrome_trace_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import Profiler
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.tracer import Tracer
from repro.service.admission import AdmissionConfig
from repro.service.cluster import (
    _OPERATION,
    _READ_KINDS,
    ClusterConfig,
    ServingCluster,
)
from repro.service.overload import OverloadConfig, ShedReason
from repro.service.rpc import DEFAULT_CPU_COST_US, Rpc, RpcKind
from repro.sim import events
from repro.sim.events import EventKernel
from repro.sim.rand import SimRandom


class ClosureCluster(ServingCluster):
    """Reference: the request path as closures inside ``submit``."""

    def submit(
        self,
        database_id: str,
        kind: RpcKind,
        on_complete: Callable[[int], None],
        cpu_cost_us: Optional[int] = None,
        commit_participants: int = 1,
        latency_sensitive: bool = True,
        on_reject: Optional[Callable[[str], None]] = None,
        memory_bytes: int = 0,
        client_region: Optional[str] = None,
        deadline_us: Optional[int] = None,
        staleness_bound_us: Optional[int] = None,
        trace_parent=None,
    ) -> bool:
        """The parent commit's ``ServingCluster.submit``, code verbatim."""
        clock = self.kernel.clock
        arrival = clock._now_us
        operation = _OPERATION[kind]
        plan = self.fault_plan
        if plan is not None and plan.decide("service.task_crash") is not None:
            # a backend task dies under load; its in-flight RPC requeues
            self.backend_pool.crash_tasks(1)
        root = None
        if self._tracer_on:
            root = self.tracer.start_span(
                "cluster.rpc",
                parent=trace_parent,
                component="cluster",
                attributes={"database_id": database_id, "operation": operation},
            )
        overload = self.overload
        if (
            overload is not None
            and self.router.breakers is not None
            and not self.router.breaker_allows(database_id, arrival)
        ):
            # fast-fail at the door: the (database, region) breaker is
            # open, so queueing more doomed work only deepens the hole
            self.admission.record_decision(database_id, ShedReason.BREAKER)
            reason = ShedReason.BREAKER
        else:
            admitted, reason = self.admission.try_admit(
                database_id,
                self.backend_pool.scheduler.pending,
                memory_bytes,
                latency_sensitive,
            )
        if reason is not None:
            self.rejected += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "requests_rejected",
                    database_id=database_id,
                    operation=operation,
                ).inc()
            if self.slo:
                self.slo.record("request", self.kernel.now_us, False)
            if root is not None:
                root.set_attribute("rejected", reason.value)
                root.end()
            if on_reject is not None:
                on_reject(reason.message)
            return False

        cost = cpu_cost_us if cpu_cost_us is not None else DEFAULT_CPU_COST_US[kind]
        hedge_primary = None
        if staleness_bound_us is not None and kind in (RpcKind.GET, RpcKind.QUERY):
            # bounded-staleness read: the chosen replica serves it from
            # local state — no leader quorum round trip on the read path
            reader = (
                client_region
                if client_region is not None
                else self.router.home_region(database_id)
            )
            serving_region, _read_ts = self.router.route_read(
                database_id, reader, staleness_bound_us
            )
            hedge_primary = serving_region
            storage_us = self.latency.local_read_us(self.rand)
            network_us = 2 * self.router.pair_latency_us(reader, serving_region)
        elif client_region is not None:
            storage_us = self._storage_latency(kind, commit_participants)
            network_us = 2 * self.router.network_latency_us(client_region, database_id)
        else:
            storage_us = self._storage_latency(kind, commit_participants)
            network_us = 2 * self.latency.rpc_us(self.rand)  # same-region client
        trace_ctx = root.context if root is not None else None
        # first-terminal-outcome-wins guard, shared by the primary path,
        # its failure paths, and a hedged backup read (None = layer off)
        settled = [False] if overload is not None else None

        def fail(reason: str) -> None:
            # shared failure path for drops and expired deadlines: the
            # admission slot is returned, the caller hears why
            if settled is not None:
                if settled[0]:
                    return
                settled[0] = True
                self.router.record_outcome(
                    database_id, False, clock._now_us
                )
            self.admission.release(database_id, memory_bytes)
            if self.metrics is not None:
                self.metrics.counter(
                    "requests_failed",
                    database_id=database_id,
                    operation=operation,
                ).inc()
            if self.slo:
                self.slo.record("request", self.kernel.now_us, False)
            if root is not None:
                root.set_attribute("failed", reason)
                root.end()
            if on_reject is not None:
                on_reject(reason)

        def fail_rpc(rpc: Rpc, reason: str) -> None:
            fail(reason)

        if plan is not None and plan.decide("rpc.drop") is not None:
            # the request vanishes on the wire after admission
            fail("rpc dropped (injected)")
            return False

        # resolve the billing operation once per request instead of
        # re-branching on kind in every completion
        if kind in _READ_KINDS:
            bill_op = self.billing.record_reads
        elif kind is RpcKind.COMMIT:
            bill_op = self.billing.record_writes
        else:
            bill_op = None

        def settle_success(total_us: int, net_us: int, store_us: int) -> None:
            self.admission.release(database_id, memory_bytes)
            self.completed += 1
            if bill_op is not None:
                bill_op(database_id)
            now = clock._now_us
            if self._profiler_on:
                # wire and storage time are busy time spent elsewhere on
                # this request's behalf — attributed so the flame adds up
                self.profiler.account(
                    "network", f"wire.{operation}", net_us, database_id
                )
                if store_us:
                    self.profiler.account(
                        "spanner", f"storage.{operation}", store_us, database_id
                    )
            if self.slo:
                self.slo.record("request", now, True)
                self.slo.record_latency("request.latency", now, total_us)
            if self.metrics is not None:
                self.metrics.counter(
                    "requests_completed",
                    database_id=database_id,
                    operation=operation,
                ).inc()
                self.metrics.histogram(
                    "request_latency_us",
                    database_id=database_id,
                    operation=operation,
                ).observe(total_us)
            if root is not None:
                root.set_attributes(
                    {
                        "latency_us": total_us,
                        "network_us": net_us,
                        "storage_us": store_us,
                    }
                )
                if net_us:
                    # network hops are priced arithmetically, never elapsed
                    # on the kernel — a *modeled* wait, added on top of the
                    # elapsed critical path by repro.obs.critpath
                    root.wait("rpc_network", duration_us=net_us)
                root.end()
            on_complete(total_us)

        def backend_done(rpc: Rpc, latency_us: int) -> None:
            total_us = network_us + frontend_cost + latency_us
            if settled is not None:
                if settled[0]:
                    # a hedge already answered: this is the losing arm
                    overload.account_hedge("waste", database_id)
                    return
                settled[0] = True
                self.router.record_outcome(database_id, True, clock._now_us)
                if kind in _READ_KINDS:
                    overload.read_latency.observe(total_us)
                    overload.hedges.on_read()
            settle_success(total_us, network_us, storage_us)

        hedging = (
            settled is not None
            and overload.config.hedge_enabled
            and kind in (RpcKind.GET, RpcKind.QUERY)
        )
        if hedging:
            hedge_net = [0]
            hedge_sched = [0]

            def hedge_done(rpc: Rpc, latency_us: int) -> None:
                if settled[0]:
                    overload.account_hedge("waste", database_id)
                    return
                settled[0] = True
                overload.account_hedge("win", database_id)
                self.router.record_outcome(database_id, True, clock._now_us)
                total_us = (rpc.arrival_us - arrival) + latency_us + hedge_net[0]
                overload.read_latency.observe(total_us)
                overload.hedges.on_read()
                settle_success(total_us, hedge_net[0], rpc.storage_latency_us)

            def hedge_rejected(rpc: Rpc, reason: str) -> None:
                # a failed hedge never fails the request — the primary is
                # still in flight (or already settled it)
                overload.account_hedge("waste", database_id)

            def fire_hedge() -> None:
                if settled[0]:
                    return
                now = clock._now_us
                if deadline_us is not None and now >= deadline_us:
                    return
                reader = (
                    client_region
                    if client_region is not None
                    else self.router.home_region(database_id)
                )
                region, _ts = self.router.route_read(
                    database_id,
                    reader,
                    overload.config.hedge_staleness_bound_us,
                )
                primary = (
                    hedge_primary
                    if hedge_primary is not None
                    else self.router.home_region(database_id)
                )
                if region == primary:
                    # no distinct eligible follower: nothing to hedge to
                    return
                if not overload.hedges.try_spend():
                    return
                overload.account_hedge("fired", database_id)
                if self._tracer_on:
                    # from hedge arming to firing, the request was waiting
                    # on the primary — blame the hedge delay explicitly
                    overload.record_hedge_wait(
                        self.tracer, trace_ctx, hedge_sched[0], now
                    )
                hedge_net[0] = 2 * self.router.pair_latency_us(reader, region)
                hedge_rpc = Rpc(
                    database_id=database_id,
                    kind=kind,
                    cpu_cost_us=cost,
                    arrival_us=now,
                    storage_latency_us=self.latency.local_read_us(self.rand),
                    latency_sensitive=latency_sensitive,
                    deadline_us=deadline_us,
                    on_complete=hedge_done,
                    on_reject=hedge_rejected,
                    trace_ctx=trace_ctx,
                )
                pool = self._isolated_pools.get(
                    database_id, self.backend_pool
                )
                pool.scheduler.enqueue(hedge_rpc)
                pool._dispatch()

        def frontend_done(rpc: Rpc, frontend_latency_us: int) -> None:
            if deadline_us is not None and clock._now_us >= deadline_us:
                fail("deadline exceeded after frontend hop")
                return
            backend_rpc = Rpc(
                database_id=database_id,
                kind=kind,
                cpu_cost_us=cost,
                arrival_us=clock._now_us,
                storage_latency_us=storage_us,
                latency_sensitive=latency_sensitive,
                deadline_us=deadline_us,
                on_complete=backend_done,
                on_reject=fail_rpc,
                trace_ctx=trace_ctx,
            )
            pool = self._isolated_pools.get(database_id, self.backend_pool)
            # inlined pool.submit: one fewer frame on the per-request path
            pool.scheduler.enqueue(backend_rpc)
            pool._dispatch()
            if hedging and self.router.has_replicas(database_id):
                # the backup read fires if the primary has not answered
                # within its p99 budget; first terminal outcome wins
                hedge_sched[0] = clock._now_us
                self.kernel.after(
                    overload.hedge_after_us(), fire_hedge, label="hedge-read"
                )

        frontend_cost = 50  # routing + session bookkeeping
        frontend_rpc = Rpc(
            database_id=database_id,
            kind=kind,
            cpu_cost_us=frontend_cost,
            arrival_us=arrival,
            latency_sensitive=latency_sensitive,
            deadline_us=deadline_us,
            on_complete=frontend_done,
            on_reject=fail_rpc,
            trace_ctx=trace_ctx,
        )
        if plan is not None:
            if plan.decide("rpc.duplicate") is not None:
                # a retransmitted request arrives twice; the duplicate
                # consumes serving capacity but its completion is swallowed
                self.frontend_pool.submit(
                    Rpc(
                        database_id=database_id,
                        kind=kind,
                        cpu_cost_us=frontend_cost,
                        arrival_us=arrival,
                        latency_sensitive=latency_sensitive,
                        deadline_us=deadline_us,
                        trace_ctx=trace_ctx,
                    )
                )
            delay_us = 0
            if plan.decide("rpc.delay") is not None:
                delay_us = plan.rand("rpc.delay").randint(1_000, 30_000)
            elif plan.decide("rpc.reorder") is not None:
                # a long enough delay that later arrivals overtake this one
                delay_us = plan.rand("rpc.reorder").randint(30_000, 120_000)
            if delay_us:
                # the extra wire time is part of the latency the caller
                # observes (backend_done reads network_us at call time)
                network_us += delay_us
                self.kernel.after(
                    delay_us,
                    lambda: self.frontend_pool.submit(frontend_rpc),
                    label="rpc-delay",
                )
                return True
        # inlined pool.submit: one fewer frame on the per-request path
        frontend_pool = self.frontend_pool
        frontend_pool.scheduler.enqueue(frontend_rpc)
        frontend_pool._dispatch()
        return True


# -- the harness ---------------------------------------------------------------

WIRINGS = ("plain", "chaos", "overload", "isolated")
DATABASES = ("a", "b", "c")


class _Follower:
    """ReplicaGroup stand-in whose bounded reads land on a fixed region."""

    leader_region = "us-central"

    def __init__(self, region: str):
        self.region = region

    def route_read(self, client_region, staleness_bound_us):
        return self.region, None


def build(cluster_cls, wiring: str, observed: bool, seed: int):
    kernel = EventKernel()
    planes = {}
    if observed:
        metrics = MetricsRegistry()
        tracer = Tracer(kernel.clock, SimRandom(seed).fork("equivalence-trace"))
        planes = dict(
            tracer=tracer,
            metrics=metrics,
            profiler=Profiler(),
            slo=SloEngine(
                [
                    SloSpec("request", "availability", 0.99),
                    SloSpec("request.latency", "latency", 0.9, threshold_us=9_000),
                ]
            ),
        )
    overload = OverloadConfig()
    if wiring == "overload":
        # small limits and short hedge delays, so a 40-op schedule sheds,
        # trips breakers and fires, wins and wastes hedges
        overload = OverloadConfig(
            enabled=True,
            initial_limit=6,
            min_limit=2,
            target_queue_delay_us=400,
            adjust_interval_us=2_000,
            codel_target_us=600,
            codel_interval_us=3_000,
            breaker_min_volume=3,
            breaker_window_us=20_000,
            breaker_cooldown_us=5_000,
            hedge_ratio=0.4,
            hedge_burst=2.0,
            hedge_min_delay_us=120,
            hedge_default_delay_us=300,
        )
    cluster = cluster_cls(
        kernel,
        ClusterConfig(
            frontend_tasks=2,
            backend_tasks=1,
            autoscale_frontend=False,
            autoscale_backend=False,
            admission=AdmissionConfig(
                shed_queue_depth=8,
                per_database_inflight_limit=5,
                memory_pressure_bytes=4_000,
            ),
            overload=overload,
            seed=seed,
        ),
        **planes,
    )
    router = cluster.router
    router.register_database("a", "us-central")
    router.register_database("b", "us-central")
    router.register_database("c", "europe-west")
    # "a" has a follower to hedge to; "b"'s bounded reads land on the
    # leader (nothing to hedge to); "c" has no replica group at all
    router.attach_replicas("a", _Follower("us-east"))
    router.attach_replicas("b", _Follower("us-central"))
    if wiring == "chaos":
        cluster.fault_plan = FaultPlan(
            seed,
            rates=FAULT_MIXES["chaos"],
            metrics=planes.get("metrics"),
            tracer=planes.get("tracer"),
        )
    if wiring == "isolated":
        cluster.isolate_database("a", tasks=1, autoscale=False)
    return cluster


def run(cluster_cls, program, wiring, observed=False, seed=0, arm=()):
    """Drive one cluster through ``program``; returns everything observable."""
    cluster = build(cluster_cls, wiring, observed, seed)
    kernel = cluster.kernel
    for site in arm:
        if cluster.fault_plan is None:
            cluster.fault_plan = FaultPlan(seed)
        cluster.fault_plan.arm(site)
    log = []
    record_outcome = cluster.router.record_outcome

    def heard_outcome(database_id, ok, now_us):
        log.append(("outcome", database_id, ok, now_us))
        record_outcome(database_id, ok, now_us)

    cluster.router.record_outcome = heard_outcome
    for index, op in enumerate(program):
        if op[0] == "submit":
            _, db, kind, ttl_us, region, staleness_us, memory, interactive = op
            accepted = cluster.submit(
                db,
                kind,
                lambda latency, index=index: log.append(
                    ("complete", kernel.now_us, index, latency)
                ),
                latency_sensitive=interactive,
                on_reject=lambda reason, index=index: log.append(
                    ("reject", kernel.now_us, index, reason)
                ),
                memory_bytes=memory,
                client_region=region,
                deadline_us=None if ttl_us is None else kernel.now_us + ttl_us,
                staleness_bound_us=staleness_us,
            )
            log.append(("submitted", index, accepted))
        elif op[0] == "run":
            kernel.run_for(op[1])
        elif op[0] == "crash":
            pool = cluster.frontend_pool if op[1] else cluster.backend_pool
            log.append(("crashed", pool.crash_tasks(1, requeue=op[2])))
        elif op[0] == "reject-in-flight":
            # a hop reporting failure twice: deduplicated only when the
            # overload layer's first-outcome-wins guard exists
            for pool in (cluster.frontend_pool, cluster.backend_pool):
                for task in list(pool._tasks.values()):
                    if task.current_rpc is not None:
                        task.current_rpc.reject("hop failed")
        elif op[0] == "isolate":
            cluster.isolate_database(op[1], tasks=1, autoscale=False)
        else:
            cluster.unisolate_database(op[1])
    kernel.run_for(3_000_000)
    admission = cluster.admission
    pools = [cluster.frontend_pool, cluster.backend_pool]
    pools += [cluster._isolated_pools[db] for db in sorted(cluster._isolated_pools)]
    state = {
        "log": log,
        "end": (kernel.now_us, kernel.executed, cluster.completed, cluster.rejected),
        "rand": cluster.rand._rng.getstate(),
        "billing": [cluster.billing.day_usage(db) for db in DATABASES],
        "admission": (
            admission.admitted,
            admission.shed,
            admission.limited,
            admission.memory_rejected,
            [admission.inflight(db) for db in DATABASES],
            admission.total_inflight_memory(),
        ),
        "pools": [(pool.name, pool.completed, pool.busy_us_total) for pool in pools],
    }
    if cluster.fault_plan is not None:
        state["faults"] = cluster.fault_plan.log
    overload = cluster.overload
    if overload is not None:
        state["overload"] = (
            overload.hedges_fired,
            overload.hedge_wins,
            overload.hedge_waste,
            overload.hedges.tokens,
            overload.hedges.denied,
            overload.limiter.limit,
        )
    if observed:
        state["trace"] = chrome_trace_json(cluster.tracer)
        state["metrics"] = cluster.metrics.to_dict()
        state["profile"] = cluster.profiler.to_dict()
        state["slo"] = {
            stream: {index: (b.good, b.bad) for index, b in buckets.items()}
            for stream, buckets in cluster.slo._streams.items()
        }
    return state


def heard(state, *tags):
    """The log entries with one of ``tags``, in order."""
    return [entry for entry in state["log"] if entry[0] in tags]


def assert_equivalent(program, wiring="plain", observed=False, seed=0, arm=()):
    record = run(ServingCluster, program, wiring, observed, seed, arm)
    closures = run(ClosureCluster, program, wiring, observed, seed, arm)
    for key in closures:
        assert record[key] == closures[key], key
    return record


def submit(
    db="a",
    kind=RpcKind.GET,
    ttl_us=None,
    region=None,
    staleness_us=None,
    memory=0,
    interactive=True,
):
    return ("submit", db, kind, ttl_us, region, staleness_us, memory, interactive)


_ops = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(DATABASES),
        st.sampled_from(
            [RpcKind.GET, RpcKind.GET, RpcKind.QUERY, RpcKind.COMMIT, RpcKind.BATCH]
        ),
        # deadlines that expire at the door, in a queue, and never
        st.sampled_from([None, None, None, 0, 40, 400, 20_000]),
        st.sampled_from([None, None, "us-east", "europe-west"]),
        st.sampled_from([None, None, 10_000]),
        st.sampled_from([0, 0, 0, 1_500, 3_000]),
        st.booleans(),
    ),
    st.tuples(st.just("run"), st.sampled_from([0, 1, 50, 50, 300, 2_000, 40_000])),
    st.tuples(st.just("crash"), st.booleans(), st.booleans()),
    st.tuples(st.just("reject-in-flight")),
    st.tuples(st.just("isolate"), st.sampled_from(DATABASES)),
    st.tuples(st.just("unisolate"), st.sampled_from(DATABASES)),
)


@settings(max_examples=300, deadline=None)
@given(
    program=st.lists(_ops, max_size=40),
    wiring=st.sampled_from(WIRINGS),
    observed=st.booleans(),
    seed=st.integers(0, 7),
)
def test_request_record_matches_closures(program, wiring, observed, seed):
    assert_equivalent(program, wiring, observed, seed)


@pytest.mark.parametrize("wiring", WIRINGS)
def test_a_busy_schedule_agrees_under_every_wiring(wiring):
    """A fixed schedule dense enough that every wiring does its thing
    (sheds, expiries, hedges, faults), with every plane recording."""
    kinds = [RpcKind.GET, RpcKind.QUERY, RpcKind.COMMIT, RpcKind.GET, RpcKind.BATCH]
    regions = [None, "us-east", None, "europe-west"]
    program = []
    for index in range(120):
        program.append(
            submit(
                DATABASES[index % 3],
                kinds[index % 5],
                ttl_us=[None, 20_000, 40, 400][index % 4],
                region=regions[index % 4],
                staleness_us=10_000 if index % 7 == 0 else None,
                memory=1_500 if index % 6 == 0 else 0,
                interactive=index % 5 != 4,
            )
        )
        if index % 3 == 2:
            program.append(("run", [50, 300, 2_000][index % 9 // 3]))
    state = assert_equivalent(program, wiring, observed=True, seed=2)
    assert heard(state, "complete")
    assert {entry[3] for entry in heard(state, "reject")} >= {
        "deadline exceeded in queue",
        "deadline exceeded after frontend hop",
    }
    if wiring == "chaos":
        assert {site for site, _ in state["faults"]} >= {
            "service.task_crash",
            "rpc.drop",
            "rpc.duplicate",
            "rpc.delay",
            "rpc.reorder",
        }
    if wiring == "overload":
        assert state["overload"][0]  # a hedge fired
        assert "load shed: circuit breaker open" in {
            entry[3] for entry in heard(state, "reject")
        }
    if wiring == "isolated":
        assert state["pools"][2][1] > 0  # the isolated pool served "a"


# -- the named mutants ---------------------------------------------------------


def test_injected_wire_delay_is_part_of_the_reported_latency():
    """``rpc.delay`` adds to ``network_us`` after the record is built."""
    undelayed = assert_equivalent([submit()])
    delayed = assert_equivalent([submit()], arm=("rpc.delay",))
    (_, _, _, fast), (_, _, _, slow) = (
        heard(undelayed, "complete") + heard(delayed, "complete")
    )
    assert slow - fast >= 1_000


def test_without_the_overload_layer_nothing_is_deduplicated():
    """A hop that fails twice is heard twice, its late completion too,
    and the router hears nothing; with the layer on, once and once."""
    program = [submit(), ("reject-in-flight",), ("reject-in-flight",)]
    off = heard(
        assert_equivalent(program, "plain"), "complete", "reject", "outcome"
    )
    assert [entry[0] for entry in off] == ["reject", "reject", "complete"]
    on = heard(
        assert_equivalent(program, "overload"), "complete", "reject", "outcome"
    )
    assert on == [("outcome", "a", False, 0), ("reject", 0, 0, "hop failed")]


def test_no_hedge_token_is_spent_with_nowhere_to_hedge_to():
    """Two tokens: slow reads of "b" (follower == leader region) must
    leave both for "a", whose backup reads have a follower to go to."""
    slow = [submit("b", RpcKind.QUERY) for _ in range(4)]
    program = slow + [("run", 1_000)] + [submit("a"), submit("a"), ("run", 1_000)]
    fired, _wins, _waste, _tokens, denied, _limit = assert_equivalent(
        program, "overload"
    )["overload"]
    assert (fired, denied) == (2, 0)


def test_backend_pool_is_chosen_when_the_hop_is_enqueued():
    """Isolated after submit, before the Frontend hop completes: the
    Backend hop (and a hedge fired later) run on the dedicated pool."""
    program = [submit(), ("isolate", "a")]
    assert assert_equivalent(program)["pools"][2][:2] == ("isolated-a", 1)
    # the primary queues behind a commit on the shared pool; the database
    # is isolated before the hedge fires, so the backup read runs on the
    # dedicated pool, and wins
    program = [submit("c", RpcKind.COMMIT), submit(), ("run", 100), ("isolate", "a")]
    state = assert_equivalent(program, "overload")
    fired, wins, waste = state["overload"][:3]
    assert (fired, wins, waste) == (1, 1, 1)
    assert state["pools"][2][:2] == ("isolated-a", 1)


def test_one_request_path_and_one_dispatch_loop():
    """No second copy: ``submit`` builds no per-request closures (only
    the ``rpc-delay`` re-submit lambda is nested in it) and the kernel
    pops its heap in exactly one place."""
    nested = [
        const.co_name
        for const in ServingCluster.submit.__code__.co_consts
        if isinstance(const, types.CodeType)
    ]
    assert nested == ["<lambda>"]
    assert inspect.getsource(events).count("heappop(") == 1
