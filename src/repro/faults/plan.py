"""The central fault plan: every injected fault in one seeded place.

FoundationDB-style deterministic simulation testing rests on two legs: a
fault plane that decides *when* to break things, and an invariant checker
that judges the wreckage. ``repro.check`` is the checker; this module is
the fault plane. A :class:`FaultPlan` owns one seeded random stream per
injection *site* (forked from a single root seed, so adding a site never
shifts another site's decisions) plus an explicit queue of armed one-shot
faults, and the instrumented hot paths ask it ``decide(site)`` at each
opportunity.

Layering. The hot paths (Spanner commit, RPC dispatch, Changelog accept,
client flush) never import this package — they carry a duck-typed
``fault_plan`` attribute, ``None`` by default, exactly like the
``sanitizer``/``recorder``/``tracer`` attributes the other cross-cutting
subsystems use. A run with no plan installed takes the same code path as
before this module existed.

Determinism. Every decision draws from ``repro.sim.rand`` streams; a
reprolint check (``fault-seeded``) enforces that no plan is built without
an explicit seed. Same seed + same call sequence => same injected faults,
byte-identical histories (asserted by the replay harness over the chaos
scenarios).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.rand import SimRandom

# -- injection sites ---------------------------------------------------------
# One constant per place the reproduction can break. The prefix names the
# layer; the suffix the failure mode.

#: Spanner commit fails definitively (transaction aborted, nothing applied).
SPANNER_COMMIT_FAIL = "spanner.commit_fail"
#: Spanner commit acknowledgement lost — outcome unknown. Detail key
#: ``applied`` (bool) forces whether the write landed; absent = coin flip.
SPANNER_COMMIT_UNKNOWN = "spanner.commit_unknown"
#: a tablet read finds its server unreachable (surfaces Unavailable).
SPANNER_TABLET_UNAVAILABLE = "spanner.tablet_unavailable"
#: a tablet read is slow (detail ``delay_us``; drawn if absent).
SPANNER_TABLET_SLOW = "spanner.tablet_slow"
#: lock acquisition times out (surfaces Aborted, like a conflict).
SPANNER_LOCK_TIMEOUT = "spanner.lock_timeout"
#: the tablet holding the first written key splits mid-commit.
SPANNER_SPLIT_DURING_COMMIT = "spanner.split_during_commit"
#: an RPC is dropped at admission (request vanishes; caller sees reject).
RPC_DROP = "rpc.drop"
#: an RPC's arrival is delayed (detail ``delay_us``; drawn if absent).
RPC_DELAY = "rpc.delay"
#: an RPC is duplicated (the duplicate's completion is swallowed).
RPC_DUPLICATE = "rpc.duplicate"
#: an RPC is reordered behind later arrivals (implemented as a max-draw
#: delay, which in a priority queue is exactly a reorder).
RPC_REORDER = "rpc.reorder"
#: the Real-time Cache loses an Accept — the range must take the
#: out-of-sync / resync fail-safe path.
REALTIME_DROP_ACCEPT = "realtime.drop_accept"
#: a Frontend task is lost; every query redoes its initial snapshot.
REALTIME_FRONTEND_LOSS = "realtime.frontend_loss"
#: a serving task crashes mid-request (work is re-queued, task replaced).
SERVICE_TASK_CRASH = "service.task_crash"
#: the client's network flaps (disconnect now, reconnect later).
CLIENT_FLAP = "client.flap"
#: a whole replica region goes down (detail ``region``, ``duration_us``;
#: drawn if absent). The replica loses its in-flight shipping stream.
REGION_OUTAGE = "region.outage"
#: a replica region is partitioned from the leader (up but unreachable;
#: detail ``region``, ``duration_us``).
REGION_PARTITION = "region.partition"
#: a replica ships/acks slowly (detail ``region``, ``penalty_us``,
#: ``duration_us``) — lag grows, bounded reads fail over to closer state.
REPLICA_SLOW = "replica.slow"

ALL_SITES = (
    SPANNER_COMMIT_FAIL,
    SPANNER_COMMIT_UNKNOWN,
    SPANNER_TABLET_UNAVAILABLE,
    SPANNER_TABLET_SLOW,
    SPANNER_LOCK_TIMEOUT,
    SPANNER_SPLIT_DURING_COMMIT,
    RPC_DROP,
    RPC_DELAY,
    RPC_DUPLICATE,
    RPC_REORDER,
    REALTIME_DROP_ACCEPT,
    REALTIME_FRONTEND_LOSS,
    SERVICE_TASK_CRASH,
    CLIENT_FLAP,
    REGION_OUTAGE,
    REGION_PARTITION,
    REPLICA_SLOW,
)

#: named per-site probability mixes for the chaos runner. ``none`` is the
#: control group: a plan that never fires, proving the hooks are inert.
FAULT_MIXES: dict[str, dict[str, float]] = {
    "none": {},
    "storage": {
        SPANNER_COMMIT_FAIL: 0.06,
        SPANNER_COMMIT_UNKNOWN: 0.06,
        SPANNER_TABLET_UNAVAILABLE: 0.02,
        SPANNER_TABLET_SLOW: 0.05,
        SPANNER_LOCK_TIMEOUT: 0.03,
        SPANNER_SPLIT_DURING_COMMIT: 0.03,
    },
    "network": {
        RPC_DROP: 0.03,
        RPC_DELAY: 0.10,
        RPC_DUPLICATE: 0.03,
        RPC_REORDER: 0.05,
        REALTIME_DROP_ACCEPT: 0.08,
        CLIENT_FLAP: 0.02,
    },
    "chaos": {
        SPANNER_COMMIT_FAIL: 0.04,
        SPANNER_COMMIT_UNKNOWN: 0.04,
        SPANNER_TABLET_UNAVAILABLE: 0.02,
        SPANNER_TABLET_SLOW: 0.04,
        SPANNER_LOCK_TIMEOUT: 0.02,
        SPANNER_SPLIT_DURING_COMMIT: 0.02,
        RPC_DROP: 0.02,
        RPC_DELAY: 0.06,
        RPC_DUPLICATE: 0.02,
        RPC_REORDER: 0.03,
        REALTIME_DROP_ACCEPT: 0.05,
        REALTIME_FRONTEND_LOSS: 0.02,
        SERVICE_TASK_CRASH: 0.02,
        CLIENT_FLAP: 0.02,
    },
    # replication-focused mixes for the failover sweep: each one keeps a
    # light storage/commit background so region faults land mid-traffic
    "region-outage": {
        REGION_OUTAGE: 0.06,
        SPANNER_COMMIT_UNKNOWN: 0.03,
        CLIENT_FLAP: 0.02,
    },
    "region-partition": {
        REGION_PARTITION: 0.08,
        SPANNER_COMMIT_FAIL: 0.03,
        CLIENT_FLAP: 0.02,
    },
    "replica-slow": {
        REPLICA_SLOW: 0.15,
        SPANNER_TABLET_SLOW: 0.04,
    },
}


class FaultPlan:
    """A seeded schedule of faults, consulted by every injection hook.

    Two decision sources, in priority order:

    1. **Armed faults** — explicit one-shot faults queued with
       :meth:`arm`, fired FIFO per site. This is the deterministic-test
       mode.
    2. **Rates** — per-site Bernoulli probabilities (``rates`` maps site
       -> p), each drawn from that site's own forked stream. This is the
       chaos-sweep mode.

    ``decide(site)`` returns ``None`` (no fault) or the fault's *detail*
    dict (possibly empty); hooks read parameters (``applied``,
    ``delay_us``, ...) out of the detail, drawing any absent ones from
    ``rand(site)`` so parameter draws are seeded too.
    """

    def __init__(
        self,
        seed: int,
        rates: Optional[dict[str, float]] = None,
        metrics=None,
        tracer=None,
    ):
        self.seed = seed
        self.rates = dict(rates) if rates else {}
        self.metrics = metrics
        self.tracer = tracer
        #: set by ``run_chaos(..., trace=True)``: scenarios that support
        #: critical-path attribution build a clock-bound Tracer, install
        #: it here, and attach the critpath summary to ``run.extra``
        self.trace_requested = False
        #: site -> number of faults injected there (for reports/tests)
        self.injected: dict[str, int] = {}
        #: ordered log of (site, detail) — the "fault plan artifact"
        #: uploaded by CI when a chaos run fails
        self.log: list[tuple[str, dict]] = []
        self._root = SimRandom(seed).fork("fault-plan")
        self._streams: dict[str, SimRandom] = {}
        self._armed: dict[str, list[dict]] = {}
        #: hooks with side-effectful faults look extra callbacks up here
        #: (e.g. the chaos runner registers the client-flap executor)
        self.actions: dict[str, Callable[..., Any]] = {}

    # -- randomness --------------------------------------------------------

    def rand(self, site: str) -> SimRandom:
        """The dedicated stream for ``site`` (decisions *and* params)."""
        stream = self._streams.get(site)
        if stream is None:
            stream = self._root.fork(site)
            self._streams[site] = stream
        return stream

    # -- arming ------------------------------------------------------------

    def arm(self, site: str, **detail) -> None:
        """Queue a one-shot fault at ``site`` (FIFO with earlier arms)."""
        self._armed.setdefault(site, []).append(dict(detail))

    def armed(self, site: str) -> int:
        """How many one-shot faults are still queued at ``site``."""
        return len(self._armed.get(site, ()))

    def disarm(self, site: Optional[str] = None) -> None:
        """Drop queued one-shot faults (``None`` = every site)."""
        if site is None:
            self._armed.clear()
        else:
            self._armed.pop(site, None)

    # -- the decision ------------------------------------------------------

    def decide(self, site: str) -> Optional[dict]:
        """Should a fault fire at ``site`` right now?

        Returns the fault detail dict to inject, or ``None``. Armed
        faults take priority and do not consume a random draw, so a test
        that arms explicit faults perturbs no rate-driven stream.
        """
        queue = self._armed.get(site)
        if queue:
            detail = queue.pop(0)
            self._note(site, detail)
            return detail
        rate = self.rates.get(site, 0.0)
        if rate > 0.0 and self.rand(site).bernoulli(rate):
            detail: dict = {}
            self._note(site, detail)
            return detail
        return None

    # -- accounting --------------------------------------------------------

    def _note(self, site: str, detail: dict) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1
        self.log.append((site, dict(detail)))
        if self.metrics is not None:
            self.metrics.counter("faults_injected", site=site).inc()
        if self.tracer is not None:
            span = self.tracer.current_span()
            if span is not None:
                span.set_attribute("fault.injected", site)
                span.add_event("fault-injected", {"site": site})

    @property
    def total_injected(self) -> int:
        """Total faults injected across every site."""
        return sum(self.injected.values())

    def report(self) -> dict:
        """JSON-serializable summary (goes into ``BENCH_faults.json``)."""
        return {
            "seed": self.seed,
            "rates": dict(sorted(self.rates.items())),
            "injected": dict(sorted(self.injected.items())),
            "total_injected": self.total_injected,
        }


def plan_for_mix(seed: int, mix: str, metrics=None, tracer=None) -> FaultPlan:
    """A :class:`FaultPlan` for one of the named :data:`FAULT_MIXES`."""
    try:
        rates = FAULT_MIXES[mix]
    except KeyError:
        raise ValueError(
            f"unknown fault mix {mix!r}; have {sorted(FAULT_MIXES)}"
        ) from None
    return FaultPlan(seed, rates=rates, metrics=metrics, tracer=tracer)


# -- installation ------------------------------------------------------------


def install(plan: FaultPlan, database) -> FaultPlan:
    """Thread ``plan`` through every layer of one FirestoreDatabase.

    Sets the duck-typed ``fault_plan`` attribute on the Spanner database,
    the Real-time Cache, and the client-facing database object. The
    serving cluster (if any) is wired separately by the caller because it
    is shared across databases.
    """
    database.layout.spanner.fault_plan = plan
    database.realtime.fault_plan = plan
    database.fault_plan = plan
    replication = getattr(database.layout.spanner, "replication", None)
    if replication is not None:
        replication.fault_plan = plan
    return plan
