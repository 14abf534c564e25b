"""Task pools: the simulated serving capacity.

Each component "comprises up to thousands of tasks" (paper section IV); a
:class:`TaskPool` models N identical tasks, each executing one RPC at a
time, drawing work from a shared :class:`FairShareScheduler`. Completion
events run on the discrete-event kernel, so queueing delay emerges from
offered load vs capacity exactly as in a real cluster.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.sim.events import EventKernel
from repro.service.rpc import Rpc, RpcKind
from repro.service.scheduler import FairShareScheduler


class _Task:
    __slots__ = ("task_id", "busy_until_us", "current_rpc", "current_event")

    def __init__(self, task_id: int):
        self.task_id = task_id
        self.busy_until_us = 0
        # the in-flight (rpc, completion event) pair while serving, None
        # when idle — what a crash loses; two slots rather than a tuple
        # so dispatch does not allocate per RPC
        self.current_rpc = None
        self.current_event = None


class TaskPool:
    """A pool of identical serving tasks over one scheduler."""

    def __init__(
        self,
        name: str,
        kernel: EventKernel,
        scheduler: Optional[FairShareScheduler] = None,
        initial_tasks: int = 4,
        speedup: float = 1.0,
        tracer=None,
        metrics=None,
        profiler=None,
    ):
        if initial_tasks < 1:
            raise ValueError("a pool needs at least one task")
        from repro.obs.perf import NULL_PROFILER
        from repro.obs.tracer import NULL_TRACER

        self.name = name
        self.kernel = kernel
        self.scheduler = scheduler if scheduler is not None else FairShareScheduler()
        self.speedup = speedup
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # fast flags resolved once: the dispatch loop runs per event, and
        # truthiness of the null singletons is a Python __bool__ call
        # (callers may hand us the null singletons directly, so test
        # truthiness here rather than identity against None)
        self._profiler_on = bool(self.profiler)
        self._tracer_on = bool(self.tracer)
        # per-kind strings synthesized once: the dispatch loop must not
        # run .name.lower() or build f-strings per RPC
        self._profile_labels = {
            kind: f"{name}.{kind.name.lower()}" for kind in RpcKind
        }
        self._kind_labels = {kind: kind.name.lower() for kind in RpcKind}
        self._exec_span_name = f"{name}.exec"
        # task_id -> task; ids only grow, so insertion order is ascending
        # id order (crash-victim selection depends on it)
        self._tasks = {i: _Task(i) for i in range(initial_tasks)}
        self._next_task_id = initial_tasks
        # Every task sits in exactly one of two min-heaps, so dispatch
        # costs O(log tasks) instead of a scan. ``_busy`` holds
        # (busy_until_us, task_id); ``_idle`` holds the ids of tasks whose
        # service time has ended. Idle means ``busy_until_us <= now`` —
        # not "its completion callback has run": in a same-instant wave
        # the first completion re-dispatches onto siblings whose
        # completion events are still in the kernel heap. Dispatch moves
        # due entries over and serves the lowest idle id.
        self._busy: list[tuple[int, int]] = []
        self._idle = list(self._tasks)
        #: optional :class:`repro.service.overload.QueueDiscipline` — when
        #: set, dispatch feeds queue waits to its adaptive limiter and
        #: sheds RPCs whose sojourn blew the CoDel target
        self.overload = None
        #: cluster callback invoked for each CoDel-shed RPC (ledger the
        #: decision, stamp the backoff hint, reject); set with ``overload``
        self.shed_hook = None
        #: optional re-admission gate for the crash-requeue path; returns
        #: True to re-enqueue, False when it shed (and rejected) the RPC
        self.readmit = None
        # utilization accounting
        self._busy_us_accum = 0.0
        self._accounted_until = kernel.now_us
        #: cumulative task-busy microseconds, never reset (unlike the
        #: windowed ``utilization`` accumulator) — the denominator of the
        #: profiler's coverage check
        self.busy_us_total = 0
        self.completed = 0

    # -- sizing ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current number of tasks."""
        return len(self._tasks)

    def add_tasks(self, count: int) -> None:
        """Grow the pool and drain queued work onto the new tasks."""
        for _ in range(count):
            self._add_task()
        self._record_size()
        self._dispatch()

    def _add_task(self) -> None:
        task_id = self._next_task_id
        self._next_task_id += 1
        self._tasks[task_id] = _Task(task_id)
        heappush(self._idle, task_id)

    def remove_tasks(self, count: int) -> int:
        """Shrink by up to ``count`` idle tasks, lowest ids first (never
        below one task). Only idle tasks are removed, so in-flight work
        is never lost; returns how many were removed."""
        tasks = self._tasks
        now = self.kernel.now_us
        idle = [
            task_id for task_id, task in tasks.items() if task.busy_until_us <= now
        ]
        victims = idle[: min(count, len(tasks) - 1)]
        for task_id in victims:
            del tasks[task_id]
        self._rebuild_heaps()
        self._record_size()
        return len(victims)

    def crash_tasks(self, count: int = 1, requeue: bool = True) -> int:
        """Crash ``count`` tasks mid-flight (fault injection).

        A crash loses the task's in-flight RPC — its completion event is
        cancelled and the RPC is re-queued (``requeue``, the default: the
        load balancer retries on a sibling) or rejected. The crashed task
        is replaced immediately, modeling the cluster scheduler's fast
        restart; the autoscaler sees only the queueing backlog the crash
        caused. Returns the number of tasks crashed.
        """
        crashed = 0
        tasks = self._tasks
        for _ in range(count):
            victim = None
            for task in tasks.values():
                if task.current_rpc is not None:
                    victim = task
                    break
            if victim is None:
                victim = next(iter(tasks.values()))
            del tasks[victim.task_id]
            # before the callbacks below can re-enter _dispatch
            self._rebuild_heaps()
            rpc = victim.current_rpc
            if rpc is not None:
                victim.current_event.cancel()
                if requeue:
                    # the RPC still holds its admission slot, but the
                    # queue may have filled since: re-check before
                    # re-inserting (the readmit hook rejects on shed)
                    readmit = self.readmit
                    if readmit is None or readmit(rpc):
                        self.scheduler.enqueue(rpc)
                else:
                    rpc.reject("task crashed")
            self._add_task()
            crashed += 1
        if crashed:
            if self.metrics is not None:
                self.metrics.counter("pool_task_crashes", pool=self.name).inc(
                    crashed
                )
            self._record_size()
            self._dispatch()
        return crashed

    def _rebuild_heaps(self) -> None:
        """Re-derive both heaps from ``_tasks`` after tasks that may sit
        in either one left the pool. In place (a re-entered _dispatch
        holds references); a sorted list is a heap, and dispatch refills
        ``_idle`` from it."""
        self._idle.clear()
        self._busy[:] = sorted(
            (task.busy_until_us, task_id)
            for task_id, task in self._tasks.items()
        )

    def _record_size(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("pool_tasks", pool=self.name).set(len(self._tasks))

    # -- work flow -----------------------------------------------------------------

    def submit(self, rpc: Rpc) -> None:
        """Enqueue one RPC and dispatch if a task is free."""
        self.scheduler.enqueue(rpc)
        self._dispatch()

    def _dispatch(self) -> None:
        scheduler = self.scheduler
        if scheduler.pending == 0:
            return
        now = self.kernel.clock._now_us
        busy = self._busy
        idle = self._idle
        # cheap exits first (nothing queued / every task busy) before
        # binding the rest of the dispatch state
        if not idle and (not busy or busy[0][0] > now):
            return
        tasks = self._tasks
        kernel = self.kernel
        metrics = self.metrics
        speedup = self.speedup
        pick = scheduler.pick
        overload = self.overload
        while True:
            # re-checked every round: an assignment, or a reject/shed
            # callback that submitted and re-entered _dispatch, may have
            # taken the last idle task
            while busy and busy[0][0] <= now:
                heappush(idle, heappop(busy)[1])
            if not idle:
                return
            rpc = pick()
            if rpc is None:
                return
            if rpc.deadline_us is not None and now >= rpc.deadline_us:
                # the caller gave up while this RPC sat in the queue:
                # expire it here instead of burning a task on dead work
                if metrics is not None:
                    metrics.counter(
                        "faults_deadline_expired", at=self.name
                    ).inc()
                rpc.reject("deadline exceeded in queue")
                continue
            if overload is not None:
                sojourn = now - rpc.arrival_us
                overload.observe(sojourn, now)
                if overload.should_shed(sojourn, now, rpc.latency_sensitive):
                    # queue-deadline shedding: sojourn blew the CoDel
                    # target, drain the standing queue instead of serving
                    # stale work (the hook ledgers and rejects)
                    self.shed_hook(rpc)
                    continue
            task_id = heappop(idle)
            task = tasks[task_id]
            cost = rpc.cpu_cost_us
            service_us = max(1, round(cost / speedup)) if speedup != 1.0 else cost
            finish = now + service_us
            task.busy_until_us = finish
            # reprolint: disable=hot-loop-alloc -- the heap entry is the per-RPC state that replaces an O(tasks) scan; an int pair is the smallest key that orders by (finish, task id)
            heappush(busy, (finish, task_id))
            self._busy_us_accum += service_us
            self.busy_us_total += service_us
            if self._profiler_on:
                self.profiler.account(
                    "service",
                    self._profile_labels[rpc.kind],
                    service_us,
                    rpc.database_id,
                )
            if self._tracer_on and rpc.trace_ctx is not None:
                self.tracer.start_span(
                    self._exec_span_name,
                    parent=rpc.trace_ctx,
                    component=self.name,
                    # reprolint: disable=hot-loop-alloc -- span attributes are per-span values by nature; the tracer is off in perf runs
                    attributes={
                        "database_id": rpc.database_id,
                        "kind": self._kind_labels[rpc.kind],
                        "queue_wait_us": now - rpc.arrival_us,
                        "task": task_id,
                        # critical-path self-classification: uncovered time
                        # inside an exec span is CPU service, not a gap
                        "self_cause": "service",
                    },
                ).end(finish)
            event = kernel.at(
                finish, self._make_completion(task, rpc, finish)
            )
            task.current_rpc = rpc
            task.current_event = event
            if scheduler.pending == 0:
                return

    def _make_completion(self, task: _Task, rpc: Rpc, finish_us: int):
        def complete() -> None:
            # a same-instant sibling's dispatch may already have handed
            # this task its next RPC: clear only our own in-flight pair
            if task.current_rpc is rpc:
                task.current_rpc = None
                task.current_event = None
            self.completed += 1
            if self.metrics is not None:
                self.metrics.counter("pool_completed", pool=self.name).inc()
            storage_us = rpc.storage_latency_us
            if storage_us > 0:
                # events never fire late, so the completion latency is
                # known at schedule time: precompute it instead of
                # re-reading the clock inside the deferred callback
                fire_us = self.kernel.clock._now_us + storage_us
                if self._tracer_on and rpc.trace_ctx is not None:
                    # the gap until the deferred completion fires is the
                    # storage layer's latency — for commits that is the
                    # modeled Spanner quorum round trip
                    self.tracer.record_wait(
                        rpc.trace_ctx,
                        "quorum_rtt"
                        if rpc.kind is RpcKind.COMMIT
                        else "storage_read",
                        start_us=fire_us - storage_us,
                        end_us=fire_us,
                    )
                on_done = rpc.on_complete
                if on_done is not None:
                    latency_us = fire_us - rpc.arrival_us
                    self.kernel.post(fire_us, lambda: on_done(rpc, latency_us))
            else:
                rpc.complete(finish_us)
            if self.scheduler.pending != 0:
                self._dispatch()

        return complete

    # -- utilization -----------------------------------------------------------------

    def utilization(self) -> float:
        """Mean utilization since the last call (0..1); resets the window."""
        now = self.kernel.now_us
        elapsed = now - self._accounted_until
        if elapsed <= 0:
            return 0.0
        capacity = elapsed * len(self._tasks)
        # clamp: work scheduled into the future counts only up to now
        busy = min(self._busy_us_accum, capacity)
        self._busy_us_accum = 0.0
        self._accounted_until = now
        return busy / capacity

    def queue_depth(self) -> int:
        """RPCs waiting for a task."""
        return self.scheduler.queued()
