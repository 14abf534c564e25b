"""Declarative SLOs evaluated over rolling sim-time windows.

A service-level objective here is a small spec — *kind*, *target*,
*window* — judged against event streams the instrumented components
feed in sim time:

``availability``
    good/bad events; met when the windowed success ratio >= target.
``latency``
    latency samples; a sample is *good* when <= ``threshold_us``; met
    when the good ratio >= target (e.g. "99% of writes under 500ms").
``staleness``
    identical arithmetic over notification staleness samples.
``fairness``
    per-tenant CPU-share samples; met when the hottest tenant's share
    is within ``threshold`` x its fair share (paper Fig. 11 isolation).
``convergence``
    boolean events (the chaos runner's post-recovery check); met only
    when every event in the window is good.

Burn rate follows the SRE-workbook definition: the rate at which the
error budget (``1 - target``) is being consumed, so ``burn == 1``
exactly spends the budget over the window. Alerts are multi-window: a
spec *alerts* only when both the short window (default ``window/12``)
and the full window burn faster than ``burn_alert`` — a spike must
still be burning now AND have burned enough budget to matter.

Evaluation is pure arithmetic over bucketed counters, so verdicts are
byte-identical under same-seed replay. Verdicts surface three ways:
``slo.*`` metrics in the registry, a span event on the active span,
and the verdict block embedded in every ``BENCH_*.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "SloSpec",
    "SloVerdict",
    "SloEngine",
    "DEFAULT_SLOS",
    "REPLICATION_SLOS",
    "OVERLOAD_SLOS",
]

#: bucket granularity for windowed accounting (1 simulated second)
BUCKET_US = 1_000_000

KINDS = ("availability", "latency", "staleness", "fairness", "convergence")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective (see module docstring for the grammar)."""

    name: str
    kind: str
    target: float
    #: evaluation window in simulated microseconds
    window_us: int = 60_000_000
    #: good/bad threshold for latency & staleness samples; share factor
    #: for fairness (hottest tenant <= threshold x fair share)
    threshold_us: int = 0
    #: stream of events this spec consumes (defaults to ``name``)
    stream: str = ""
    #: multi-window alert fires when BOTH windows burn faster than this
    burn_alert: float = 14.4
    short_window_us: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target <= 1.0 and self.kind != "fairness":
            raise ValueError(f"target {self.target} out of (0, 1]")
        if not self.stream:
            object.__setattr__(self, "stream", self.name)
        if not self.short_window_us:
            object.__setattr__(
                self, "short_window_us", max(BUCKET_US, self.window_us // 12)
            )


@dataclass
class SloVerdict:
    """The outcome of evaluating one spec at one instant."""

    name: str
    kind: str
    target: float
    ok: bool
    observed: float
    error_rate: float
    burn_rate: float
    burn_rate_short: float
    alerting: bool
    window_us: int
    good: int
    bad: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "ok": self.ok,
            "observed": round(self.observed, 6),
            "error_rate": round(self.error_rate, 6),
            "burn_rate": round(self.burn_rate, 4),
            "burn_rate_short": round(self.burn_rate_short, 4),
            "alerting": self.alerting,
            "window_us": self.window_us,
            "good": self.good,
            "bad": self.bad,
        }


class _Bucket:
    __slots__ = ("good", "bad", "shares")

    def __init__(self):
        self.good = 0
        self.bad = 0
        # fairness only: database_id -> cpu_us in this bucket
        self.shares: Optional[dict[str, int]] = None


class SloEngine:
    """Feeds event streams into buckets and judges specs against them."""

    def __init__(self, specs, metrics=None, tracer=None):
        self.specs = list(specs)
        names = [spec.name for spec in self.specs]
        if len(names) != len(set(names)):
            raise ValueError("duplicate SLO spec names")
        self.metrics = metrics
        self.tracer = tracer
        #: stream -> bucket_index -> _Bucket
        self._streams: dict[str, dict[int, _Bucket]] = {}

    def __bool__(self) -> bool:
        return True

    # -- feed side ---------------------------------------------------------

    def _bucket(self, stream: str, t_us: int) -> _Bucket:
        buckets = self._streams.setdefault(stream, {})
        index = t_us // BUCKET_US
        bucket = buckets.get(index)
        if bucket is None:
            bucket = _Bucket()
            buckets[index] = bucket
        return bucket

    def record(self, stream: str, t_us: int, good: bool) -> None:
        """One good/bad event (availability, convergence)."""
        bucket = self._bucket(stream, t_us)
        if good:
            bucket.good += 1
        else:
            bucket.bad += 1

    def record_latency(self, stream: str, t_us: int, latency_us: int) -> None:
        """One latency/staleness sample, judged against each consumer."""
        for spec in self.specs:
            if spec.stream == stream and spec.kind in ("latency", "staleness"):
                self.record(stream, t_us, latency_us <= spec.threshold_us)
                return
        # no consumer: count as good so the stream still has volume
        self.record(stream, t_us, True)

    def record_share(
        self, stream: str, t_us: int, database_id: str, cpu_us: int
    ) -> None:
        """Per-tenant CPU accounting for fairness specs."""
        bucket = self._bucket(stream, t_us)
        if bucket.shares is None:
            bucket.shares = {}
        bucket.shares[database_id] = bucket.shares.get(database_id, 0) + cpu_us

    # -- judge side --------------------------------------------------------

    def _window_counts(
        self, stream: str, now_us: int, window_us: int
    ) -> tuple[int, int]:
        buckets = self._streams.get(stream, {})
        first = max(0, (now_us - window_us) // BUCKET_US + 1)
        last = now_us // BUCKET_US
        good = bad = 0
        for index, bucket in buckets.items():
            if first <= index <= last:
                good += bucket.good
                bad += bucket.bad
        return good, bad

    def _window_shares(
        self, stream: str, now_us: int, window_us: int
    ) -> dict[str, int]:
        buckets = self._streams.get(stream, {})
        first = max(0, (now_us - window_us) // BUCKET_US + 1)
        last = now_us // BUCKET_US
        shares: dict[str, int] = {}
        for index, bucket in buckets.items():
            if first <= index <= last and bucket.shares:
                for database_id, cpu_us in bucket.shares.items():
                    shares[database_id] = shares.get(database_id, 0) + cpu_us
        return shares

    @staticmethod
    def _burn(good: int, bad: int, target: float) -> float:
        total = good + bad
        if total == 0:
            return 0.0
        error_rate = bad / total
        budget = 1.0 - target
        if budget <= 0.0:
            # a 100% target has no budget: any error burns infinitely
            return 0.0 if bad == 0 else float("inf")
        return error_rate / budget

    def _judge(self, spec: SloSpec, now_us: int) -> SloVerdict:
        if spec.kind == "fairness":
            shares = self._window_shares(spec.stream, now_us, spec.window_us)
            total = sum(shares.values())
            if not shares or total == 0 or len(shares) == 1:
                observed, ok = 1.0, True
            else:
                fair = total / len(shares)
                observed = max(shares.values()) / fair
                ok = observed <= spec.target
            burn = 0.0 if ok else spec.target and observed / spec.target
            return SloVerdict(
                name=spec.name,
                kind=spec.kind,
                target=spec.target,
                ok=ok,
                observed=observed,
                error_rate=0.0 if ok else 1.0,
                burn_rate=float(burn),
                burn_rate_short=float(burn),
                alerting=not ok,
                window_us=spec.window_us,
                good=len(shares),
                bad=0,
            )
        good, bad = self._window_counts(spec.stream, now_us, spec.window_us)
        s_good, s_bad = self._window_counts(
            spec.stream, now_us, spec.short_window_us
        )
        total = good + bad
        observed = good / total if total else 1.0
        error_rate = bad / total if total else 0.0
        burn = self._burn(good, bad, spec.target)
        burn_short = self._burn(s_good, s_bad, spec.target)
        if spec.kind == "convergence":
            ok = bad == 0
        else:
            ok = observed >= spec.target
        alerting = burn >= spec.burn_alert and burn_short >= spec.burn_alert
        return SloVerdict(
            name=spec.name,
            kind=spec.kind,
            target=spec.target,
            ok=ok,
            observed=observed,
            error_rate=error_rate,
            burn_rate=burn,
            burn_rate_short=burn_short,
            alerting=alerting,
            window_us=spec.window_us,
            good=good,
            bad=bad,
        )

    def evaluate(self, now_us: int) -> list[SloVerdict]:
        """Judge every spec at ``now_us``; surface metrics + span events."""
        verdicts = [self._judge(spec, now_us) for spec in self.specs]
        if self.metrics is not None:
            for verdict in verdicts:
                self.metrics.gauge("slo.ok", slo=verdict.name).set(
                    1.0 if verdict.ok else 0.0
                )
                self.metrics.gauge("slo.error_rate", slo=verdict.name).set(
                    round(verdict.error_rate, 6)
                )
                self.metrics.gauge("slo.burn_rate", slo=verdict.name).set(
                    round(min(verdict.burn_rate, 1e9), 4)
                )
                if verdict.alerting:
                    self.metrics.counter("slo.alerts", slo=verdict.name).inc()
        if self.tracer:
            span = self.tracer.current_span()
            if span is not None:
                for verdict in verdicts:
                    if verdict.alerting:
                        span.add_event(
                            "slo.alert",
                            {
                                "slo": verdict.name,
                                "burn_rate": round(verdict.burn_rate, 4),
                            },
                        )
        return verdicts

    def verdict_block(self, now_us: int) -> dict:
        """The BENCH_*.json SLO block: name-sorted, replay-stable."""
        return {
            verdict.name: verdict.to_dict()
            for verdict in sorted(
                self.evaluate(now_us), key=lambda v: v.name
            )
        }

    def ok(self, now_us: int) -> bool:
        """True when every spec is met at ``now_us``."""
        return all(verdict.ok for verdict in self.evaluate(now_us))


def DEFAULT_SLOS(window_us: int = 60_000_000) -> list[SloSpec]:
    """The serving-plane objectives: availability, p99, staleness, fairness."""
    return [
        SloSpec(
            name="request.availability",
            kind="availability",
            target=0.999,
            window_us=window_us,
            stream="request",
        ),
        SloSpec(
            name="request.p99_latency",
            kind="latency",
            target=0.99,
            threshold_us=500_000,
            window_us=window_us,
            stream="request.latency",
        ),
        SloSpec(
            name="notify.staleness",
            kind="staleness",
            target=0.99,
            threshold_us=1_000_000,
            window_us=window_us,
            stream="notify.staleness",
        ),
        SloSpec(
            name="tenant.fairness",
            kind="fairness",
            target=1.5,
            window_us=window_us,
            stream="tenant.cpu",
        ),
    ]


def REPLICATION_SLOS(window_us: int = 60_000_000) -> list[SloSpec]:
    """Geo-replication objectives (replication lag and convergence).

    Kept separate from :func:`DEFAULT_SLOS` so single-region cells are
    not judged against streams they never feed.
    """
    return [
        # 99% of replication-lag samples within 200ms of the leader: a
        # follower further behind stops qualifying for bounded reads at
        # the common staleness bounds, so lag *is* the staleness budget.
        SloSpec(
            name="replication.lag",
            kind="staleness",
            target=0.99,
            threshold_us=200_000,
            window_us=window_us,
            stream="replication.lag",
        ),
        # every post-recovery convergence check must pass: all followers
        # caught up to the leader's log after faults heal.
        SloSpec(
            name="replication.convergence",
            kind="convergence",
            target=1.0,
            window_us=window_us,
            stream="replication.convergence",
        ),
    ]


def OVERLOAD_SLOS(window_us: int = 60_000_000) -> list[SloSpec]:
    """Graceful-degradation objectives for the overload chaos scenarios.

    Judged over the *whole* storm, trigger included — the point of the
    layer is what survives while the spike is on and how fast the fleet
    comes back once it clears:

    - ``overload.goodput`` — the goodput floor: even at 10x offered
      load, at least half of the *logical* operations (not raw RPCs)
      must still succeed across the run. Fast-fail sheds don't count as
      goodput; completed user ops do.
    - ``overload.shed_fairness`` — shedding must not single out one
      tenant: the hottest tenant's share of shed requests stays within
      2.5x its fair share. (Targeted per-tenant actions — breakers,
      memory pressure — are deliberate exceptions and feed their own
      streams, not this one.)
    - ``overload.recovery`` — the metastable check: every post-trigger
      recovery probe (goodput back above the recovery threshold within
      the bounded window after the trigger clears) must pass. One failed
      probe = the fleet stayed collapsed = the SLO is broken.
    """
    return [
        SloSpec(
            name="overload.goodput",
            kind="availability",
            target=0.5,
            window_us=window_us,
            stream="overload.goodput",
        ),
        SloSpec(
            name="overload.shed_fairness",
            kind="fairness",
            target=2.5,
            window_us=window_us,
            stream="overload.shed",
        ),
        SloSpec(
            name="overload.recovery",
            kind="convergence",
            target=1.0,
            window_us=window_us,
            stream="overload.recovery",
        ),
    ]
