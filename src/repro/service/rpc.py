"""RPC envelopes for the serving simulation.

"An individual RPC is not a uniform work unit, as its cost can vary
significantly — one RPC can cost a million times another" (paper section
IV-C); the envelope therefore carries an explicit CPU cost. Batch and
internal workloads "set custom tags on their RPCs, which allow schedulers
to prioritize latency-sensitive workloads".
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # import cycle: repro.obs has no runtime dependency here
    from repro.obs.tracer import SpanContext


class RpcKind(enum.Enum):
    """Request categories with distinct cost/latency profiles."""
    GET = "get"
    QUERY = "query"
    COMMIT = "commit"
    LISTEN = "listen"
    NOTIFY = "notify"  # realtime fan-out work on Frontend tasks
    BATCH = "batch"    # tagged background work, deprioritized


#: Baseline CPU service costs per kind (microseconds of backend CPU).
DEFAULT_CPU_COST_US = {
    RpcKind.GET: 150,
    RpcKind.QUERY: 400,
    RpcKind.COMMIT: 500,
    RpcKind.LISTEN: 250,
    RpcKind.NOTIFY: 60,
    RpcKind.BATCH: 2_000,
}

_rpc_ids = itertools.count(1)


class Rpc:
    """One request moving through the serving path.

    A hand-rolled ``__slots__`` record rather than a dataclass: two of
    these are built per simulated request, and the generated dataclass
    ``__init__`` plus a separate ``__post_init__`` frame are measurable
    at that rate (see the ladder's ``fleet`` workload).

    Fields:

    - ``storage_latency_us``: commit-path extra (replication quorum
      etc.), added after CPU service
    - ``latency_sensitive``: user-facing vs tagged batch/internal traffic
    - ``deadline_us``: absolute sim-clock deadline; every hop (queue,
      dispatch, messaging) may expire the RPC once it passes instead of
      completing dead work
    - ``trace_ctx``: trace context propagated across the serving hops
      (repro.obs); None on untraced requests, so tracing stays
      zero-cost when off
    - ``retry_after_us``: server-driven backoff hint stamped onto the
      envelope when the request is shed; carried back to the client so
      ``call_with_retry`` paces its next attempt to the server's queue
      instead of its own guess
    """

    __slots__ = (
        "database_id",
        "kind",
        "cpu_cost_us",
        "arrival_us",
        "storage_latency_us",
        "latency_sensitive",
        "deadline_us",
        "on_complete",
        "on_reject",
        "trace_ctx",
        "rpc_id",
        "retry_after_us",
    )

    def __init__(
        self,
        database_id: str,
        kind: RpcKind,
        cpu_cost_us: int,
        arrival_us: int,
        storage_latency_us: int = 0,
        latency_sensitive: bool = True,
        deadline_us: Optional[int] = None,
        on_complete: Optional[Callable[["Rpc", int], None]] = None,
        on_reject: Optional[Callable[["Rpc", str], None]] = None,
        trace_ctx: Optional["SpanContext"] = None,
    ):
        if cpu_cost_us <= 0:
            raise ValueError("rpc must have positive CPU cost")
        self.database_id = database_id
        self.kind = kind
        self.cpu_cost_us = cpu_cost_us
        self.arrival_us = arrival_us
        self.storage_latency_us = storage_latency_us
        self.latency_sensitive = latency_sensitive
        self.deadline_us = deadline_us
        self.on_complete = on_complete
        self.on_reject = on_reject
        self.trace_ctx = trace_ctx
        self.rpc_id = next(_rpc_ids)
        self.retry_after_us: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"Rpc(database_id={self.database_id!r}, kind={self.kind!r}, "
            f"cpu_cost_us={self.cpu_cost_us}, rpc_id={self.rpc_id})"
        )

    def complete(self, finish_us: int) -> None:
        """Invoke the completion callback with the measured latency."""
        if self.on_complete is not None:
            self.on_complete(self, finish_us - self.arrival_us)

    def reject(self, reason: str) -> None:
        """Invoke the rejection callback with a reason."""
        if self.on_reject is not None:
            self.on_reject(self, reason)
