"""YCSB core workloads A and B against the serving cluster.

Paper section V-B1: "We ran the YCSB benchmark: workload A with 50% reads
and 50% updates and workload B with 95% reads and 5% updates. We used a
uniform key distribution with 900-byte sized documents, each composed of
a single field of that size. Tests were run for 10 minutes for each
target QPS throughput; the data shown is based on measuring the last 5
minutes to allow the system to stabilize."

The runner reproduces that protocol against :class:`ServingCluster`: an
open-loop arrival process at the target QPS starting cold (YCSB "ramp[s]
up very rapidly", which is what stresses auto-scaling and produces the
p99 inflation of Figures 7/8), with separate read/update latency
recorders split into warm-up and measurement phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.clock import MICROS_PER_SECOND
from repro.sim.rand import SimRandom
from repro.service.cluster import ClusterConfig, ServingCluster
from repro.service.metrics import LatencyRecorder
from repro.service.rpc import RpcKind

#: operation mixes: fraction of reads
WORKLOAD_READ_FRACTION = {"A": 0.50, "B": 0.95}

#: single-field 900-byte documents -> 1 field, 2 automatic index entries
YCSB_DOC_BYTES = 900
#: backend CPU to serve one YCSB read / update
READ_CPU_US = 200
UPDATE_CPU_US = 700


@dataclass
class YcsbConfig:
    """One cell of the YCSB matrix: workload, target QPS, duration."""
    workload: str = "A"
    target_qps: int = 1000
    duration_s: int = 600
    measure_last_s: int = 300
    record_count: int = 10_000
    seed: int = 42
    cluster: Optional[ClusterConfig] = None
    #: opt-in observability: record spans + metrics for the whole run and
    #: stitch one sampled full-stack commit (repro.obs.trace_full_commit)
    #: into the same trace at the start of the measurement window
    trace: bool = False
    #: optional repro.obs hooks (perf.Profiler / slo.SloEngine), threaded
    #: into the serving cluster
    profiler: Optional[object] = None
    slo: Optional[object] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_READ_FRACTION:
            raise ValueError(f"unknown YCSB workload {self.workload!r}")
        if self.target_qps <= 0:
            raise ValueError("target QPS must be positive")


@dataclass
class YcsbResult:
    """Percentiles and throughput measured for one YCSB cell."""
    workload: str
    target_qps: int
    read_p50_us: int
    read_p99_us: int
    update_p50_us: int
    update_p99_us: int
    achieved_qps: float
    rejected: int
    #: p99 of the first vs second half of the run (shows auto-scaling
    #: catching up, as the paper observed)
    read_p99_first_half_us: int = 0
    read_p99_second_half_us: int = 0
    update_p99_first_half_us: int = 0
    update_p99_second_half_us: int = 0


class YcsbRunner:
    """Drives one (workload, target QPS) cell of the YCSB matrix."""

    def __init__(self, config: YcsbConfig):
        self.config = config
        if config.cluster is not None:
            cluster_config = config.cluster
        else:
            # Serverless: "capacity is not pre-allocated for individual
            # databases" — the run starts on a cold, minimal slice and
            # relies on (deliberately delayed) auto-scaling, which is what
            # produces the paper's p99 inflation under YCSB's rapid ramp.
            from repro.service.autoscaler import AutoscalerConfig

            cluster_config = ClusterConfig(
                seed=config.seed,
                frontend_tasks=2,
                backend_tasks=1,
                autoscaler=AutoscalerConfig(
                    evaluation_interval_us=45_000_000,
                    scale_up_after_evals=2,
                ),
            )
        self.tracer = None
        self.metrics = None
        if config.trace:
            from repro.obs import MetricsRegistry, Tracer
            from repro.sim.events import EventKernel

            kernel = EventKernel()
            self.tracer = Tracer(
                kernel.clock, SimRandom(config.seed).fork("tracer")
            )
            self.metrics = MetricsRegistry()
            self.cluster = ServingCluster(
                kernel,
                cluster_config,
                tracer=self.tracer,
                metrics=self.metrics,
                profiler=config.profiler,
                slo=config.slo,
            )
        else:
            self.cluster = ServingCluster(
                config=cluster_config,
                profiler=config.profiler,
                slo=config.slo,
            )
        self.rand = SimRandom(config.seed).fork("ycsb-ops")
        self.arrivals = SimRandom(config.seed).fork("ycsb-arrivals")

    def run(self) -> YcsbResult:
        """Drive the workload to completion and report percentiles."""
        config = self.config
        kernel = self.cluster.kernel
        duration_us = config.duration_s * MICROS_PER_SECOND
        measure_from = duration_us - config.measure_last_s * MICROS_PER_SECOND
        halfway = measure_from + (duration_us - measure_from) // 2

        reads = LatencyRecorder("reads")
        updates = LatencyRecorder("updates")
        read_halves = (LatencyRecorder("r1"), LatencyRecorder("r2"))
        update_halves = (LatencyRecorder("u1"), LatencyRecorder("u2"))
        completed = [0]

        read_fraction = WORKLOAD_READ_FRACTION[config.workload]
        # bound once outside the per-operation closure: issue() runs for
        # every simulated request, so each saved lookup is paid back
        # tens of thousands of times per run
        clock = kernel.clock
        post = kernel.post
        # the raw random.Random methods, bypassing the SimRandom wrapper
        # frames: random() < p IS bernoulli(p) and randint(0, k) consumes
        # exactly one _randbelow(k + 1) draw, so the stream is unchanged
        random_draw = self.rand._rng.random
        randbelow = self.rand._rng._randbelow
        expovariate = self.arrivals._rng.expovariate
        submit = self.cluster.submit
        mean_gap_us = MICROS_PER_SECOND / config.target_qps
        arrival_rate = 1.0 / mean_gap_us
        key_range = config.record_count

        # one completion callback per (window, kind, half) combination,
        # created once: the per-operation closure this replaces was a
        # measurable slice of the kernel's events/sec budget. The
        # in-window/half decision is made at issue time, as before.
        def complete_outside(latency_us: int) -> None:
            completed[0] += 1

        def make_recorder(primary, half):
            record_primary = primary.record
            record_half = half.record

            def complete(latency_us: int) -> None:
                completed[0] += 1
                record_primary(latency_us)
                record_half(latency_us)

            return complete

        read_done = (
            make_recorder(reads, read_halves[0]),
            make_recorder(reads, read_halves[1]),
        )
        update_done = (
            make_recorder(updates, update_halves[0]),
            make_recorder(updates, update_halves[1]),
        )

        def issue() -> None:
            now = clock._now_us
            if now >= duration_us:
                return
            is_read = random_draw() < read_fraction
            # the key is drawn for workload fidelity (uniform distribution)
            randbelow(key_range)
            if now >= measure_from:
                half = 1 if now >= halfway else 0
                on_complete = read_done[half] if is_read else update_done[half]
            else:
                on_complete = complete_outside

            if is_read:
                submit("ycsb", RpcKind.GET, on_complete, cpu_cost_us=READ_CPU_US)
            else:
                submit(
                    "ycsb",
                    RpcKind.COMMIT,
                    on_complete,
                    cpu_cost_us=UPDATE_CPU_US,
                    commit_participants=2,  # Entities + IndexEntries tablets
                )
            # submit() never advances the clock (it only schedules), so
            # ``now`` is still the current time here
            gap = expovariate(arrival_rate)
            post(now + max(1, round(gap)), issue)

        if self.tracer is not None:
            # one sampled commit through the *functional* stack (Backend
            # seven-step write, Spanner 2PC, Real-time Prepare/Accept,
            # listener delivery), stitched into the same trace at the
            # start of the measurement window
            from repro.core.firestore import FirestoreService
            from repro.obs import trace_full_commit

            service = FirestoreService(
                clock=kernel.clock, tracer=self.tracer, metrics=self.metrics
            )
            sampled = service.create_database("ycsb")
            kernel.at(
                measure_from,
                lambda: trace_full_commit(
                    sampled, "usertable/sample", {"field0": "x" * YCSB_DOC_BYTES}
                ),
            )

        kernel.at(0, issue)
        kernel.run_until(duration_us + 5 * MICROS_PER_SECOND)

        measured_s = config.measure_last_s
        achieved = (len(reads) + len(updates)) / measured_s

        def p(recorder: LatencyRecorder, pct: float) -> int:
            return recorder.percentile(pct) if len(recorder) else 0

        return YcsbResult(
            workload=config.workload,
            target_qps=config.target_qps,
            read_p50_us=p(reads, 50),
            read_p99_us=p(reads, 99),
            update_p50_us=p(updates, 50),
            update_p99_us=p(updates, 99),
            achieved_qps=achieved,
            rejected=self.cluster.rejected,
            read_p99_first_half_us=p(read_halves[0], 99),
            read_p99_second_half_us=p(read_halves[1], 99),
            update_p99_first_half_us=p(update_halves[0], 99),
            update_p99_second_half_us=p(update_halves[1], 99),
        )
