"""The batch workloads: discrete-event and chaos runs of a stated size.

``fleet`` (YCSB A on a cold default cluster: few tasks, the kernel and
``ServingCluster.submit`` dominate), ``fleet_tenants`` (64 + 256 tasks,
200 tenants, notification fan-outs: pool dispatch and fair-share pick
dominate) and ``chaos`` (three checked chaos scenarios with every plane
on). Simulated results are outputs to verify; the metric is how long the
interpreter takes to produce them. Each job is cut into identical rounds
(or equal slices of simulated time), so that, like the functional
workloads, it reports its third-best segment.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import random
from time import perf_counter_ns

from benchmarks.ladder.workload import SPARE, Workload

from repro.faults.chaos import run_chaos
from repro.obs.metrics import MetricsRegistry
from repro.service.cluster import ClusterConfig, ServingCluster
from repro.service.rpc import RpcKind
from repro.workloads import YcsbConfig, YcsbRunner

MICROS = 1_000_000
#: identical rounds a batch job of the full size is cut into
ROUNDS = 24


class _Batch(Workload):
    """Simulated operations: a segment is one round or one slice of the
    job, and its headline latency is wall per simulated op."""

    headline = "request"
    executed = 0  # kernel events, for events_per_s

    def serving_counts(self, cluster: ServingCluster) -> None:
        self.counts["service.pool.tasks_at_end"] = (
            cluster.frontend_pool.size + cluster.backend_pool.size
        )


class Fleet(_Batch):
    """``size.ops`` simulated seconds of YCSB A at 2,000 QPS, as identical
    rounds, each on its own cold default cluster (2 + 1 tasks)."""

    def setup(self) -> None:
        self.planned = ROUNDS if self.size.ops >= 2 * ROUNDS else 1
        self.round_s = max(2, self.size.ops // self.planned)

    def run_segment(self, index: int, tracer=None) -> None:
        runner = YcsbRunner(
            YcsbConfig(
                "A",
                target_qps=2000,
                duration_s=self.round_s,
                measure_last_s=self.round_s // 2,
                seed=self.seed,
            )
        )
        start = perf_counter_ns()
        result = runner.run()
        wall = perf_counter_ns() - start
        cluster = runner.cluster
        self.expect(cluster.rejected == 0, f"{cluster.rejected} requests rejected")
        self.expect(
            cluster.admission.inflight("ycsb") == 0,
            "admitted requests still in flight after the drain",
        )
        self.executed += cluster.kernel.executed
        self.serving_counts(cluster)
        self.close_segment(
            cluster.completed,
            wall,
            [dataclasses.asdict(result), cluster.kernel.executed, cluster.completed],
        )

    def verify(self) -> None:
        self.expect(self.ops > 0, "no request settled")
        self.expect(
            all(output == self.outputs[0] for output in self.outputs),
            "identical rounds gave different results",
        )


TENANTS = 200
TENANT_QPS = 3000
CONNECTIONS = 20_000
FANOUT_LISTENERS = 20_000
DRAIN_S = 5
#: idle simulated seconds run in set-up, so that the first autoscaler
#: evaluation has lifted the Frontend pool to its connection floor
WARMUP_S = 6


class FleetTenants(_Batch):
    """``size.ops`` simulated seconds of 200 tenants (rates 1/rank, 60%
    GET, 20% QUERY, 20% COMMIT) on 64 + 256 tasks, one 20,000-listener
    fan-out per simulated second; each simulated second is a segment."""

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.planned = self.size.ops
        self.cluster = ServingCluster(
            config=ClusterConfig(
                seed=self.seed, frontend_tasks=64, backend_tasks=256
            )
        )
        self.cluster.set_active_connections(CONNECTIONS)
        self.cluster.kernel.run_until(WARMUP_S * MICROS)
        names = [f"tenant{rank:03d}" for rank in range(TENANTS)]
        cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) for rank in range(TENANTS))
        )
        rate = TENANT_QPS / MICROS
        now = float(WARMUP_S * MICROS)
        self.arrivals = []
        for _ in range(TENANT_QPS * self.planned * SPARE):
            now += rng.expovariate(rate)
            tenant = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
            draw = rng.random()
            kind = (
                RpcKind.GET
                if draw < 0.6
                else RpcKind.QUERY
                if draw < 0.8
                else RpcKind.COMMIT
            )
            self.arrivals.append((int(now), names[min(tenant, TENANTS - 1)], kind))
        self.position = 0
        self.issuing = True
        self.settled = self.rejected = self.latency_sum = 0
        self.fanouts_issued = 0
        self.fanout_latencies: list[int] = []
        self.cluster.kernel.post(self.arrivals[0][0], self.issue)

    # -- callbacks the simulation runs

    def issue(self) -> None:
        if not self.issuing:
            return
        _, tenant, kind = self.arrivals[self.position]
        self.cluster.submit(tenant, kind, self.done, on_reject=self.reject)
        self.position += 1
        if self.position < len(self.arrivals):
            kernel = self.cluster.kernel
            kernel.post(max(self.arrivals[self.position][0], kernel.now_us), self.issue)

    def done(self, latency_us: int) -> None:
        self.settled += 1
        self.latency_sum += latency_us

    def reject(self, reason: str) -> None:
        self.rejected += 1

    def fan_out(self) -> None:
        self.fanouts_issued += 1
        self.cluster.submit_notification_fanout(
            "tenant000", FANOUT_LISTENERS, self.fanout_latencies.append
        )

    # -- the timed part

    def run_segment(self, index: int, tracer=None) -> None:
        kernel = self.cluster.kernel
        second = WARMUP_S + index
        kernel.at(second * MICROS + MICROS // 2, self.fan_out)
        before = (self.settled, self.latency_sum, len(self.fanout_latencies))
        start = perf_counter_ns()
        kernel.run_until((second + 1) * MICROS)
        wall = perf_counter_ns() - start
        self.close_segment(
            self.settled - before[0],
            wall,
            [
                self.settled - before[0],
                self.latency_sum - before[1],
                self.fanout_latencies[before[2] :],
                kernel.executed,
            ],
        )

    def finish(self) -> None:
        """Stop the arrivals and drain what is in flight (untimed)."""
        self.issuing = False
        kernel = self.cluster.kernel
        kernel.run_until(kernel.now_us + DRAIN_S * MICROS)
        self.executed = kernel.executed
        self.serving_counts(self.cluster)

    def verify(self) -> None:
        self.expect(
            self.position == self.settled + self.rejected,
            f"submitted {self.position} != settled {self.settled} "
            f"+ rejected {self.rejected}",
        )
        self.expect(self.rejected == 0, f"{self.rejected} requests rejected")
        self.expect(
            len(self.fanout_latencies) == self.fanouts_issued,
            f"{len(self.fanout_latencies)} of {self.fanouts_issued} fan-outs delivered",
        )


SCENARIOS = ("commit", "failover", "realtime-fanout")


class Chaos(_Batch):
    """``size.ops`` operations of each of three chaos scenarios at
    ``mix="chaos"``, as identical rounds of all three: fault plan, history
    recorder and checker, retries and replication all on. An op that ends
    terminal under injected faults is an expected, seed-determined output
    (it is in the digest); what fails verification is a violation, a lost
    or duplicated write, or listeners that did not converge."""

    headline = "op"

    def setup(self) -> None:
        self.metrics = MetricsRegistry()
        self.planned = ROUNDS if self.size.ops >= 4 * ROUNDS else 1
        self.round_ops = self.size.ops // self.planned
        self.succeeded = self.injected = self.events = 0

    def run_segment(self, index: int, tracer=None) -> None:
        start = perf_counter_ns()
        runs = [
            run_chaos(
                scenario, self.seed, "chaos", self.round_ops, metrics=self.metrics
            )
            for scenario in SCENARIOS
        ]
        wall = perf_counter_ns() - start
        # keep the verdicts, drop the histories: garbage a later round
        # would have to traverse
        output = []
        for run in runs:
            self.succeeded += run.succeeded
            self.injected += sum(run.injected.values())
            self.events += sum(len(history) for history in run.histories)
            self.expect(
                not run.violations,
                f"{run.scenario}: {len(run.violations)} checker violations",
            )
            self.expect(run.exactly_once, f"{run.scenario}: not exactly-once")
            self.expect(run.converged, f"{run.scenario}: did not converge")
            output.append(
                {
                    "scenario": run.scenario,
                    "attempted": run.attempted,
                    "succeeded": run.succeeded,
                    "terminal": run.failed,
                    "p50_us": run.latency_percentile(50),
                    "p99_us": run.latency_percentile(99),
                    "injected": dict(sorted(run.injected.items())),
                    "extra": dict(sorted(run.extra.items())),
                    "history_events": [len(h) for h in run.histories],
                }
            )
        self.close_segment(sum(run.attempted for run in runs), wall, output)

    def finish(self) -> None:
        attempted = max(1, self.ops)
        retries = self.metrics.total("faults_retries")
        self.counts["faults.injected_per_op"] = self.injected / attempted
        self.counts["faults.attempts_per_success"] = (attempted + retries) / max(
            1, self.succeeded
        )
        self.counts["check.events_per_op"] = self.events / attempted

    def verify(self) -> None:
        self.expect(
            all(output == self.outputs[0] for output in self.outputs),
            "identical rounds gave different results",
        )
