"""The serving cluster: Frontend + Backend pools over the event kernel.

Wires together routing, admission control, fair scheduling, auto-scaling,
the Spanner latency model, and billing — the environment the paper's
latency experiments (sections V-B and V-C) run in. Requests flow::

    client --hop--> Frontend task --hop--> Backend task --> Spanner
                                                        (storage latency)

Queueing delay emerges at each pool from offered load vs capacity;
notification fan-out (Figure 9) runs as NOTIFY work on the Frontend pool,
which auto-scales "independently of the rest of the system".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.events import EventKernel
from repro.sim.latency import LatencyModel, MultiRegionalLatency, RegionalLatency
from repro.sim.rand import SimRandom
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.autoscaler import Autoscaler, AutoscalerConfig
from repro.service.billing import BillingLedger
from repro.service.overload import (
    BreakerBoard,
    OverloadConfig,
    OverloadState,
    QueueDiscipline,
    ShedReason,
)
from repro.service.pool import TaskPool
from repro.service.rpc import DEFAULT_CPU_COST_US, Rpc, RpcKind
from repro.service.scheduler import FairShareScheduler

#: RpcKind -> lowercase operation label; a dict hit per request beats an
#: enum descriptor access plus a str.lower() allocation
_OPERATION = {kind: kind.value for kind in RpcKind}

#: kinds billed as document reads (section IV-B)
_READ_KINDS = frozenset({RpcKind.GET, RpcKind.QUERY, RpcKind.LISTEN})

#: kinds a follower replica may serve: bounded-staleness reads and the
#: hedged backup of a slow primary read
_FOLLOWER_READ_KINDS = (RpcKind.GET, RpcKind.QUERY)

#: Frontend CPU per request: routing + session bookkeeping
_FRONTEND_COST_US = 50


@dataclass(slots=True, eq=False)
class _Request:
    """One admitted request's state; its methods are the stages it moves
    through, posted to the pools and the kernel as bound methods::

        submit ─► frontend_done ─► backend_done ─► settle ─► on_complete
                       │   └─(armed)─► fire_hedge ─► hedge_done ─┘
                       ▼                                 hedge_rejected
        fail / fail_rpc ─► on_reject        (drop, deadline, shed, crash)

    ``overload`` is None when the graceful-degradation layer is off, and
    only with it on does the first terminal outcome win: ``settled``
    then arbitrates between the primary, its failure paths and a hedged
    backup read, and the router hears every outcome.
    """

    cluster: "ServingCluster"
    database_id: str
    kind: RpcKind
    on_complete: Callable[[int], None]
    on_reject: Optional[Callable[[str], None]]
    cost_us: int
    latency_sensitive: bool
    memory_bytes: int
    client_region: Optional[str]
    deadline_us: Optional[int]
    arrival_us: int
    storage_us: int
    #: client<->region round trip; rpc.delay / rpc.reorder add to it after
    #: construction, so it is read only when the backend hop completes
    network_us: int
    root: Optional[object]
    trace_ctx: Optional[object]
    overload: Optional[OverloadState]
    #: region the primary read was routed to (None = the home region)
    hedge_primary: Optional[str]
    settled: bool = False
    hedge_net_us: int = 0
    hedge_armed_us: int = 0

    # -- failure ---------------------------------------------------------------

    def fail(self, reason: str) -> None:
        """Drops, expired deadlines, sheds: the admission slot is
        returned and the caller hears why."""
        cluster = self.cluster
        database_id = self.database_id
        now = cluster.kernel.clock._now_us
        if self.overload is not None:
            if self.settled:
                return
            self.settled = True
            cluster.router.record_outcome(database_id, False, now)
        cluster.admission.release(database_id, self.memory_bytes)
        if cluster.metrics is not None:
            cluster.metrics.counter(
                "requests_failed",
                database_id=database_id,
                operation=_OPERATION[self.kind],
            ).inc()
        if cluster.slo:
            cluster.slo.record("request", now, False)
        root = self.root
        if root is not None:
            root.set_attribute("failed", reason)
            root.end()
        if self.on_reject is not None:
            self.on_reject(reason)

    def fail_rpc(self, rpc: Rpc, reason: str) -> None:
        """``Rpc.on_reject`` of both hops."""
        self.fail(reason)

    # -- the primary path ------------------------------------------------------

    def frontend_done(self, rpc: Rpc, frontend_latency_us: int) -> None:
        """The Frontend hop finished: enqueue the Backend hop, arm a hedge."""
        cluster = self.cluster
        now = cluster.kernel.clock._now_us
        deadline_us = self.deadline_us
        if deadline_us is not None and now >= deadline_us:
            self.fail("deadline exceeded after frontend hop")
            return
        self._enqueue_backend(now, self.storage_us, self.backend_done, self.fail_rpc)
        overload = self.overload
        if (
            overload is not None
            and overload.config.hedge_enabled
            and self.kind in _FOLLOWER_READ_KINDS
            and cluster.router.has_replicas(self.database_id)
        ):
            # the backup read fires if the primary has not answered
            # within its p99 budget; first terminal outcome wins
            self.hedge_armed_us = now
            cluster.kernel.after(
                overload.hedge_after_us(), self.fire_hedge, label="hedge-read"
            )

    def _enqueue_backend(self, now, storage_us, on_complete, on_reject) -> None:
        """One Backend hop (the primary or a hedge) joins its pool's queue."""
        cluster = self.cluster
        database_id = self.database_id
        # looked up as each hop is enqueued, not at submit: a database
        # may be isolated while its requests are in flight
        pool = cluster._isolated_pools.get(database_id, cluster.backend_pool)
        pool.submit(
            Rpc(
                database_id=database_id,
                kind=self.kind,
                cpu_cost_us=self.cost_us,
                arrival_us=now,
                storage_latency_us=storage_us,
                latency_sensitive=self.latency_sensitive,
                deadline_us=self.deadline_us,
                on_complete=on_complete,
                on_reject=on_reject,
                trace_ctx=self.trace_ctx,
            )
        )

    def backend_done(self, rpc: Rpc, latency_us: int) -> None:
        """The Backend hop (CPU + storage) finished: the primary answers."""
        network_us = self.network_us
        total_us = network_us + _FRONTEND_COST_US + latency_us
        overload = self.overload
        if overload is not None:
            if self.settled:
                # a hedge already answered: this is the losing arm
                overload.account_hedge("waste", self.database_id)
                return
            self.settled = True
            cluster = self.cluster
            cluster.router.record_outcome(
                self.database_id, True, cluster.kernel.clock._now_us
            )
            if self.kind in _READ_KINDS:
                overload.read_latency.observe(total_us)
                overload.hedges.on_read()
        self.settle(total_us, network_us, self.storage_us)

    def settle(self, total_us: int, net_us: int, store_us: int) -> None:
        """Success: release, bill, feed every plane, answer the caller."""
        cluster = self.cluster
        database_id = self.database_id
        kind = self.kind
        operation = _OPERATION[kind]
        cluster.admission.release(database_id, self.memory_bytes)
        cluster.completed += 1
        if kind in _READ_KINDS:
            cluster.billing.record_reads(database_id)
        elif kind is RpcKind.COMMIT:
            cluster.billing.record_writes(database_id)
        now = cluster.kernel.clock._now_us
        if cluster._profiler_on:
            # wire and storage time are busy time spent elsewhere on
            # this request's behalf — attributed so the flame adds up
            cluster.profiler.account(
                "network", f"wire.{operation}", net_us, database_id
            )
            if store_us:
                cluster.profiler.account(
                    "spanner", f"storage.{operation}", store_us, database_id
                )
        slo = cluster.slo
        if slo:
            slo.record("request", now, True)
            slo.record_latency("request.latency", now, total_us)
        metrics = cluster.metrics
        if metrics is not None:
            metrics.counter(
                "requests_completed",
                database_id=database_id,
                operation=operation,
            ).inc()
            metrics.histogram(
                "request_latency_us",
                database_id=database_id,
                operation=operation,
            ).observe(total_us)
        root = self.root
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
        self.on_complete(total_us)

    # -- the hedged backup read (overload layer on, GET/QUERY only) ------------

    def fire_hedge(self) -> None:
        """The primary is past its p99 budget: try a follower read."""
        if self.settled:
            return
        cluster = self.cluster
        now = cluster.kernel.clock._now_us
        deadline_us = self.deadline_us
        if deadline_us is not None and now >= deadline_us:
            return
        database_id = self.database_id
        router = cluster.router
        overload = self.overload
        reader = (
            self.client_region
            if self.client_region is not None
            else router.home_region(database_id)
        )
        region, _ts = router.route_read(
            database_id, reader, overload.config.hedge_staleness_bound_us
        )
        primary = (
            self.hedge_primary
            if self.hedge_primary is not None
            else router.home_region(database_id)
        )
        if region == primary:
            # no distinct eligible follower: nothing to hedge to
            return
        if not overload.hedges.try_spend():
            return
        overload.account_hedge("fired", database_id)
        if cluster._tracer_on:
            # from hedge arming to firing, the request was waiting
            # on the primary — blame the hedge delay explicitly
            overload.record_hedge_wait(
                cluster.tracer, self.trace_ctx, self.hedge_armed_us, now
            )
        self.hedge_net_us = 2 * router.pair_latency_us(reader, region)
        self._enqueue_backend(
            now,
            cluster.latency.local_read_us(cluster.rand),
            self.hedge_done,
            self.hedge_rejected,
        )

    def hedge_done(self, rpc: Rpc, latency_us: int) -> None:
        """The backup read finished; it answers only if it is first."""
        overload = self.overload
        database_id = self.database_id
        if self.settled:
            overload.account_hedge("waste", database_id)
            return
        self.settled = True
        overload.account_hedge("win", database_id)
        cluster = self.cluster
        cluster.router.record_outcome(
            database_id, True, cluster.kernel.clock._now_us
        )
        hedge_net_us = self.hedge_net_us
        total_us = (rpc.arrival_us - self.arrival_us) + latency_us + hedge_net_us
        overload.read_latency.observe(total_us)
        overload.hedges.on_read()
        self.settle(total_us, hedge_net_us, rpc.storage_latency_us)

    def hedge_rejected(self, rpc: Rpc, reason: str) -> None:
        """A failed hedge never fails the request — the primary is still
        in flight (or already settled it)."""
        self.overload.account_hedge("waste", self.database_id)


@dataclass
class ClusterConfig:
    """Sizing, scheduling, and policy knobs for a serving cluster."""
    multi_region: bool = True
    frontend_tasks: int = 4
    backend_tasks: int = 4
    fair_scheduling: bool = True
    autoscale_frontend: bool = True
    autoscale_backend: bool = True
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: graceful-degradation layer (adaptive admission, CoDel shedding,
    #: breakers, hedged reads); ``enabled=False`` keeps the serving path
    #: byte-identical to a cluster without it
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    seed: int = 0


class ServingCluster:
    """One region's serving plane for the benchmarks."""

    def __init__(
        self,
        kernel: Optional[EventKernel] = None,
        config: Optional[ClusterConfig] = None,
        tracer=None,
        metrics=None,
        profiler=None,
        slo=None,
    ):
        from repro.obs.perf import NULL_PROFILER
        from repro.obs.tracer import NULL_TRACER

        self.kernel = kernel if kernel is not None else EventKernel()
        self.config = config if config is not None else ClusterConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # fast flags resolved once: the submit/complete path runs per
        # request, and truthiness of the null singletons is a Python
        # __bool__ call each time
        self._tracer_on = bool(self.tracer)
        self._profiler_on = bool(self.profiler)
        #: optional repro.obs.slo.SloEngine; every completion/failure and
        #: fanout delivery feeds its request/staleness streams
        self.slo = slo
        self.rand = SimRandom(self.config.seed).fork("cluster-latency")
        self.latency: LatencyModel = (
            MultiRegionalLatency() if self.config.multi_region else RegionalLatency()
        )
        self.frontend_pool = TaskPool(
            "frontend",
            self.kernel,
            self._make_scheduler(fair=True),
            initial_tasks=self.config.frontend_tasks,
            tracer=self.tracer,
            metrics=metrics,
            profiler=profiler,
        )
        self.backend_pool = TaskPool(
            "backend",
            self.kernel,
            self._make_scheduler(fair=self.config.fair_scheduling),
            initial_tasks=self.config.backend_tasks,
            tracer=self.tracer,
            metrics=metrics,
            profiler=profiler,
        )
        self.active_connections = 0
        self.frontend_autoscaler = Autoscaler(
            self.frontend_pool,
            self.kernel,
            self.config.autoscaler,
            enabled=self.config.autoscale_frontend,
            size_floor_fn=self._frontend_floor,
            metrics=metrics,
        )
        self.backend_autoscaler = Autoscaler(
            self.backend_pool,
            self.kernel,
            self.config.autoscaler,
            enabled=self.config.autoscale_backend,
            metrics=metrics,
        )
        self.admission = AdmissionController(
            self.kernel.clock,
            self.config.admission,
            metrics=metrics,
            profiler=profiler,
        )
        self.billing = BillingLedger(self.kernel.clock)
        # deterministic fault plane (repro.faults.FaultPlan), duck-typed:
        # None keeps every injection hook on the request path inert
        self.fault_plan = None
        from repro.service.routing import GlobalRouter

        #: global routing: register databases' home regions to price the
        #: client -> region network hop per request (section IV-A)
        self.router = GlobalRouter(metrics=metrics)
        #: graceful-degradation state (repro.service.overload); None when
        #: the layer is disabled so the hot path pays nothing for it
        self.overload: Optional[OverloadState] = None
        overload_config = self.config.overload
        if overload_config.enabled:
            self.overload = OverloadState(
                overload_config,
                metrics=metrics,
                profiler=self.profiler if self.profiler else None,
            )
            # the limiter's AIMD limit replaces the static shed_queue_depth
            self.admission.adaptive = self.overload.limiter
            self.admission.batch_admit_fraction = (
                overload_config.batch_admit_fraction
            )
            self.backend_pool.overload = QueueDiscipline(
                overload_config, self.overload.limiter
            )
            self.backend_pool.shed_hook = self._codel_shed
            self.backend_pool.readmit = self._readmit
            if overload_config.breakers_enabled:
                self.router.breakers = BreakerBoard(
                    overload_config, metrics=metrics
                )
        # the section-VI emergency tool: databases routed to their own pool
        self._isolated_pools: dict[str, TaskPool] = {}
        self._isolated_autoscalers: dict[str, Autoscaler] = {}
        self.completed = 0
        self.rejected = 0

    def _codel_shed(self, rpc: Rpc) -> None:
        """Backend-pool hook: queue-deadline (CoDel) shed of one RPC."""
        self.admission.record_decision(rpc.database_id, ShedReason.DEADLINE)
        rpc.retry_after_us = self.overload.retry_after_us()
        rpc.reject(ShedReason.DEADLINE.message)

    def _readmit(self, rpc: Rpc) -> bool:
        """Backend-pool hook: re-judge a crashed RPC before re-queueing."""
        reason = self.admission.recheck(
            rpc.database_id, self.backend_pool.scheduler.pending
        )
        if reason is None:
            return True
        rpc.retry_after_us = self.overload.retry_after_us()
        rpc.reject(reason.message)
        return False

    def retry_after_hint_us(self) -> int:
        """The server-driven backoff hint for shed traffic (0 = none).

        Clients that honor it retry after the standing queue has had a
        chance to drain instead of on their own fixed schedule.
        """
        overload = self.overload
        return 0 if overload is None else overload.retry_after_us()

    def _make_scheduler(self, fair: bool) -> FairShareScheduler:
        scheduler = FairShareScheduler(
            fair=fair,
            metrics=self.metrics,
            profiler=self.profiler if self.profiler else None,
            slo=self.slo,
        )
        scheduler.clock = self.kernel.clock
        if self._tracer_on:
            # queue waits become structured wait causes on each trace
            scheduler.tracer = self.tracer
        return scheduler

    # -- long-lived connections --------------------------------------------------

    #: how many Listen connections one Frontend task sustains
    CONNECTIONS_PER_TASK = 100

    def set_active_connections(self, count: int) -> None:
        """Tell the Frontend autoscaler how many Listen connections exist.

        Frontend capacity scales with connection count — "the increase in
        active real-time queries increases the load on Frontend tasks,
        which leads autoscaling to quickly scale up the number of
        Frontend tasks, independently of the rest of the system".
        """
        if count < 0:
            raise ValueError("connection count cannot be negative")
        self.active_connections = count

    def _frontend_floor(self) -> int:
        needed = -(-self.active_connections // self.CONNECTIONS_PER_TASK)
        return max(self.config.frontend_tasks, needed)

    # -- request entry point --------------------------------------------------------

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
        """Inject one request; ``on_complete`` receives end-to-end latency.

        Returns False if admission control rejected it immediately.
        ``memory_bytes`` estimates the query's in-flight RAM, feeding the
        memory-pressure rejection of section VIII. ``client_region``
        (with the database registered on :attr:`router`) prices the
        client's network hop to the database's home region.
        ``deadline_us`` is an absolute sim-clock deadline carried on the
        RPC envelope through both hops: once it passes, whichever hop
        holds the request expires it (``on_reject``) instead of finishing
        work the caller has abandoned. ``staleness_bound_us`` marks a
        GET/QUERY as a bounded-staleness read: the router picks the
        nearest sufficiently caught-up replica (leader fallback) and the
        request pays that replica's hop plus a local read, instead of the
        home region's leader round trip. ``trace_parent`` (a Span or
        SpanContext) nests this request's ``cluster.rpc`` span under a
        caller-owned trace — e.g. one logical client operation that
        retries across several submits — instead of starting a new one.
        """
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
        if staleness_bound_us is not None and kind in _FOLLOWER_READ_KINDS:
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
        request = _Request(
            self,
            database_id,
            kind,
            on_complete,
            on_reject,
            cost,
            latency_sensitive,
            memory_bytes,
            client_region,
            deadline_us,
            arrival,
            storage_us,
            network_us,
            root,
            trace_ctx,
            overload,
            hedge_primary,
        )
        if plan is not None and plan.decide("rpc.drop") is not None:
            # the request vanishes on the wire after admission
            request.fail("rpc dropped (injected)")
            return False
        frontend_rpc = Rpc(
            database_id=database_id,
            kind=kind,
            cpu_cost_us=_FRONTEND_COST_US,
            arrival_us=arrival,
            latency_sensitive=latency_sensitive,
            deadline_us=deadline_us,
            on_complete=request.frontend_done,
            on_reject=request.fail_rpc,
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
                        cpu_cost_us=_FRONTEND_COST_US,
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
                # observes (backend_done reads network_us when it runs)
                request.network_us += delay_us
                self.kernel.after(
                    delay_us,
                    lambda: self.frontend_pool.submit(frontend_rpc),
                    label="rpc-delay",
                )
                return True
        self.frontend_pool.submit(frontend_rpc)
        return True

    def submit_notification_fanout(
        self,
        database_id: str,
        listeners: int,
        on_all_delivered: Callable[[int], None],
        per_listener_cost_us: int = DEFAULT_CPU_COST_US[RpcKind.NOTIFY],
        deadline_us: Optional[int] = None,
    ) -> None:
        """Fan one document update out to ``listeners`` connections.

        The work lands on the Frontend pool (one NOTIFY job per listener);
        the callback receives the latency until the *last* client was
        notified — the paper's notification-latency metric (Figure 9).
        With a ``deadline_us``, per-listener NOTIFY jobs still queued when
        it passes are expired rather than delivered late; they count as
        resolved for the completion callback.
        """
        if listeners <= 0:
            raise ValueError("fan-out needs at least one listener")
        start = self.kernel.now_us
        remaining = [listeners]
        root = None
        if self.tracer:
            root = self.tracer.start_span(
                "cluster.notify_fanout",
                component="cluster",
                attributes={"database_id": database_id, "listeners": listeners},
            )
        trace_ctx = root.context if root is not None else None

        def resolve_one() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                elapsed = self.kernel.now_us - start
                if self.metrics is not None:
                    self.metrics.histogram(
                        "notify_fanout_latency_us", database_id=database_id
                    ).observe(elapsed)
                if self.slo:
                    # time-to-last-listener is the staleness the slowest
                    # subscriber observed for this update
                    self.slo.record_latency(
                        "notify.staleness", self.kernel.now_us, elapsed
                    )
                if root is not None:
                    root.end()
                on_all_delivered(elapsed)

        def one_done(rpc: Rpc, latency_us: int) -> None:
            resolve_one()

        def one_expired(rpc: Rpc, reason: str) -> None:
            resolve_one()

        for _ in range(listeners):
            self.frontend_pool.submit(
                Rpc(
                    database_id=database_id,
                    kind=RpcKind.NOTIFY,
                    cpu_cost_us=per_listener_cost_us,
                    arrival_us=start,
                    deadline_us=deadline_us,
                    on_complete=one_done,
                    on_reject=one_expired,
                    trace_ctx=trace_ctx,
                )
            )

    # -- emergency isolation (paper section VI) ----------------------------------------

    def isolate_database(
        self, database_id: str, tasks: int = 2, autoscale: bool = True
    ) -> TaskPool:
        """Route ALL of one database's backend traffic to a dedicated pool.

        The paper's last-resort mitigation: "all traffic for that database
        can be routed to a separate pool (of tasks) for the impacted
        component, thereby isolating it completely. This pool can also be
        configured to auto-scale to the database's traffic."
        """
        if database_id in self._isolated_pools:
            return self._isolated_pools[database_id]
        pool = TaskPool(
            f"isolated-{database_id}",
            self.kernel,
            self._make_scheduler(fair=True),
            initial_tasks=tasks,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler if self.profiler else None,
        )
        self._isolated_pools[database_id] = pool
        if autoscale:
            self._isolated_autoscalers[database_id] = Autoscaler(
                pool,
                self.kernel,
                self.config.autoscaler,
                enabled=True,
                metrics=self.metrics,
            )
        return pool

    def unisolate_database(self, database_id: str) -> None:
        """Return an isolated database to the shared pool."""
        self._isolated_pools.pop(database_id, None)
        scaler = self._isolated_autoscalers.pop(database_id, None)
        if scaler is not None:
            scaler.enabled = False

    def is_isolated(self, database_id: str) -> bool:
        """Whether a database runs on its own dedicated pool."""
        return database_id in self._isolated_pools

    # -- internals ---------------------------------------------------------------------

    def _storage_latency(self, kind: RpcKind, participants: int) -> int:
        if kind is RpcKind.COMMIT:
            return self.latency.commit_us(self.rand, participants)
        if kind in (RpcKind.GET, RpcKind.QUERY, RpcKind.LISTEN):
            return self.latency.read_us(self.rand)
        return 0

    # -- driving -----------------------------------------------------------------------

    def run_for(self, duration_us: int) -> None:
        """Advance the simulation by the given microseconds."""
        self.kernel.run_for(duration_us)

    # -- observability exports -----------------------------------------------------------

    def export_trace(self, path: str) -> str:
        """Write this run's spans as Chrome trace-event JSON (Perfetto)."""
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(self.tracer, path)

    def report(self, title: str = "cluster run") -> str:
        """The plain-text per-run report of spans, metrics, and profile."""
        from repro.obs.export import render_text_report

        return render_text_report(
            self.tracer, self.metrics, title, profiler=self.profiler or None
        )

    def export_report(self, path: str, title: str = "cluster run") -> str:
        """Write the plain-text report to ``path``; returns the path."""
        from repro.obs.export import write_text_report

        return write_text_report(
            path, self.tracer, self.metrics, title, profiler=self.profiler or None
        )
