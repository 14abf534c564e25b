"""Fair-CPU-share scheduling keyed by database ID.

"We use a fair-CPU-share scheduler in our Backend tasks, keyed by
database ID" (paper section IV-C) — the mechanism evaluated in Figure 11.
Implemented as stride scheduling over per-database virtual time: the next
RPC comes from the runnable database with the smallest virtual CPU time,
so a database flooding the queue cannot starve others. Latency-sensitive
RPCs are served before tagged batch traffic within each database.

With ``fair=False`` the scheduler degrades to global FIFO — the ablation
arm of the Figure 11 experiment.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Optional

from repro.service.rpc import Rpc


class _DatabaseQueue:
    __slots__ = ("interactive", "batch", "virtual_time_us", "creation_seq")

    def __init__(self, creation_seq: int) -> None:
        self.interactive: deque = deque()
        self.batch: deque = deque()
        self.virtual_time_us = 0.0
        #: tie-break between equal virtual times: earliest-created wins
        self.creation_seq = creation_seq

    def __len__(self) -> int:
        return len(self.interactive) + len(self.batch)

    def pop(self) -> Rpc:
        if self.interactive:
            return self.interactive.popleft()
        return self.batch.popleft()


class FairShareScheduler:
    """Per-database fair queueing of backend CPU."""

    __slots__ = (
        "fair",
        "metrics",
        "profiler",
        "slo",
        "tracer",
        "clock",
        "_queues",
        "_runnable",
        "_fifo",
        "_global_virtual_us",
        "enqueued",
        "dispatched",
        "pending",
    )

    def __init__(self, fair: bool = True, metrics=None, profiler=None, slo=None):
        self.fair = fair
        self.metrics = metrics
        #: optional repro.obs.perf.Profiler (duck-typed, may stay None)
        self.profiler = profiler
        #: optional repro.obs.slo.SloEngine fed per-tenant CPU shares;
        #: needs a clock to timestamp them
        self.slo = slo
        #: optional repro.obs.tracer.Tracer — queue waits are recorded at
        #: dispatch as structured wait causes for critical-path attribution
        self.tracer = None
        self.clock = None
        self._queues: dict[str, _DatabaseQueue] = {}
        # min-heap of (virtual_time_us, creation_seq, queue), one entry
        # per non-empty queue: pick() costs O(log runnable) however many
        # idle databases exist. A queue's virtual time only moves while
        # it is out of the heap (popped in pick, empty in enqueue), so
        # an entry's key never goes stale.
        self._runnable: list[tuple[float, int, _DatabaseQueue]] = []
        self._fifo: deque[Rpc] = deque()
        #: floor for virtual time of newly-active databases, so an idle
        #: database cannot bank unbounded credit
        self._global_virtual_us = 0.0
        self.enqueued = 0
        self.dispatched = 0
        #: RPCs currently queued (either mode); the pools read this to
        #: skip a dispatch pass entirely when there is nothing to pick
        self.pending = 0

    def enqueue(self, rpc: Rpc) -> None:
        """Queue one RPC under its database's share."""
        self.enqueued += 1
        self.pending += 1
        if self.metrics is not None:
            self.metrics.counter(
                "scheduler_enqueued", database_id=rpc.database_id
            ).inc()
        if not self.fair:
            self._fifo.append(rpc)
            return
        queue = self._queues.get(rpc.database_id)
        if queue is None:
            # queues are never evicted, so the count is a fresh sequence
            # number in creation order
            queue = _DatabaseQueue(len(self._queues))
            self._queues[rpc.database_id] = queue
        if not queue.interactive and not queue.batch:
            # (re)activating: start from the current global virtual time
            virtual_time_us = queue.virtual_time_us
            if virtual_time_us < self._global_virtual_us:
                virtual_time_us = self._global_virtual_us
                queue.virtual_time_us = virtual_time_us
            heappush(
                self._runnable, (virtual_time_us, queue.creation_seq, queue)
            )
        if rpc.latency_sensitive:
            queue.interactive.append(rpc)
        else:
            queue.batch.append(rpc)

    def pick(self) -> Optional[Rpc]:
        """Dispatch the next RPC, or None when idle."""
        if not self.fair:
            if not self._fifo:
                return None
            self.dispatched += 1
            self.pending -= 1
            rpc = self._fifo.popleft()
            self._record_dispatch(rpc)
            return rpc
        runnable = self._runnable
        if not runnable:
            return None
        best_vt, creation_seq, queue = runnable[0]
        rpc = queue.pop()
        new_vt = best_vt + rpc.cpu_cost_us
        queue.virtual_time_us = new_vt
        # the picked queue re-enters at its advanced time if non-empty;
        # the heap top is then the min virtual time still runnable
        if queue.interactive or queue.batch:
            heapreplace(runnable, (new_vt, creation_seq, queue))
            floor = runnable[0][0]
        else:
            heappop(runnable)
            floor = runnable[0][0] if runnable else new_vt
        if floor > self._global_virtual_us:
            self._global_virtual_us = floor
        self.dispatched += 1
        self.pending -= 1
        if (
            self.metrics is not None
            or self.profiler is not None
            or self.slo is not None
            or self.tracer is not None
        ):
            self._record_dispatch(rpc)
        return rpc

    def _record_dispatch(self, rpc: Rpc) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "scheduler_dispatched", database_id=rpc.database_id
            ).inc()
            # per-tenant CPU share: the profiler's ledger and Figure 11's
            # isolation verdict both read this counter
            self.metrics.counter(
                "scheduler_cpu_us", database_id=rpc.database_id
            ).inc(rpc.cpu_cost_us)
        if self.profiler:
            # zero sim-time: dispatch itself is free, the pool accounts the
            # service time — this entry carries the per-tenant call count
            self.profiler.account(
                "service", "scheduler.dispatch", 0, rpc.database_id
            )
        if self.slo and self.clock is not None:
            self.slo.record_share(
                "tenant.cpu",
                self.clock.now_us,
                rpc.database_id,
                rpc.cpu_cost_us,
            )
        if self.tracer is not None and self.clock is not None:
            # the time from RPC arrival to this dispatch was queue wait —
            # annotate it on the request's trace so the critical-path
            # engine can blame the scheduler rather than leave a gap
            self.tracer.record_wait(
                rpc.trace_ctx,
                "queue",
                start_us=rpc.arrival_us,
                end_us=self.clock.now_us,
            )

    def queued(self, database_id: Optional[str] = None) -> int:
        """Queued RPCs, optionally for one database."""
        if database_id is None:
            # the running counter equals the sum over queues in either
            # mode; admission reads this per request, so no sweep here
            return self.pending
        if not self.fair:
            return sum(1 for r in self._fifo if r.database_id == database_id)
        queue = self._queues.get(database_id)
        return len(queue) if queue is not None else 0
