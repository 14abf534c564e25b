"""The perf-gate cells: small, deterministic, fully instrumented runs.

Each cell drives one slice of the reproduction with the profiler and the
SLO engine wired end to end, then reports through the unified schema
(:mod:`repro.obs.bench`). Cells are sized for CI — seconds of wall
clock, not the minutes the full figure benchmarks take — but cover the
same paths: the serving cluster under YCSB, notification fan-out, the
functional commit stack (Backend seven-step write, Spanner 2PC), the
data-shape sweep, and one chaos smoke run.

The ``canary`` hook exists to prove the gate *works*: installing
``spanner.tablet_slow`` at rate 1.0 on the functional-commit cell must
fail the comparison against clean baselines with a named metric and the
observed factor. CI runs the canary after the real gate passes.

This module sits *above* every subsystem it drives — it is the harness,
not a layer — hence the sanctioned layering suppressions on its imports.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.bench import bench_payload, metric
from repro.obs.perf import Profiler, collapse_spans, flamegraph_svg
from repro.obs.slo import DEFAULT_SLOS, REPLICATION_SLOS, SloEngine, SloSpec

GATE_SEED = 42

#: the one fault site the canary mode injects (rate 1.0): every tablet
#: read inside a functional commit goes slow, which must trip the gate
CANARY_SITE = "spanner.tablet_slow"


def _slo_engine(metrics=None, tracer=None, extra=()) -> SloEngine:
    specs = DEFAULT_SLOS(window_us=600_000_000) + list(extra)
    return SloEngine(specs, metrics=metrics, tracer=tracer)


def _coverage_spec() -> SloSpec:
    """Profiler completeness as an objective: >= 99% of simulated busy
    time must be attributed, judged as a no-budget convergence SLO."""
    return SloSpec(
        name="profiler.coverage",
        kind="convergence",
        target=1.0,
        window_us=600_000_000,
        stream="profiler.coverage",
    )


def gate_ycsb(seed: int = GATE_SEED) -> tuple[dict, dict]:
    """Serving-cluster YCSB cell (tracks figures 7/8), traced end to end.

    Returns ``(payload, artifacts)`` where artifacts carry the collapsed
    flamegraph stacks and the rendered SVG for the dashboard.
    """
    # reprolint: disable=layering -- the gate harness drives workloads; it is above the obs layer, not inside it
    from repro.workloads import YcsbConfig, YcsbRunner

    profiler = Profiler()
    slo = _slo_engine(extra=[_coverage_spec()])
    runner = YcsbRunner(
        YcsbConfig(
            workload="A",
            target_qps=300,
            duration_s=30,
            measure_last_s=15,
            seed=seed,
            trace=True,
            profiler=profiler,
            slo=slo,
        )
    )
    result = runner.run()
    now_us = runner.cluster.kernel.now_us
    busy_us = runner.cluster.busy_us()
    coverage = profiler.coverage(busy_us)
    slo.record("profiler.coverage", now_us - 1, coverage >= 0.99)
    payload = bench_payload(
        name="gate_ycsb",
        figure="fig07/fig08",
        metrics={
            "read_p50_us": metric(result.read_p50_us, "us"),
            "read_p99_us": metric(result.read_p99_us, "us"),
            "update_p50_us": metric(result.update_p50_us, "us"),
            "update_p99_us": metric(result.update_p99_us, "us"),
            "achieved_qps": metric(round(result.achieved_qps, 1), "qps"),
            "rejected": metric(result.rejected, "count", kind="exact"),
            "profiler_coverage": metric(
                round(coverage, 4), "ratio", tolerance=0.01
            ),
            "busy_us": metric(busy_us, "us"),
        },
        slos=slo.verdict_block(now_us),
        raw={"profile": profiler.to_dict()},
    )
    folded = collapse_spans(runner.tracer)
    artifacts = {
        "folded": "\n".join(folded) + ("\n" if folded else ""),
        "flamegraph_svg": flamegraph_svg(
            folded, title="gate_ycsb — sim-time flamegraph"
        ),
        "profile_table": profiler.text_table(),
    }
    return payload, artifacts


def gate_fanout(seed: int = 7) -> tuple[dict, dict]:
    """Notification fan-out cell (tracks figure 9)."""
    # reprolint: disable=layering -- the gate harness drives workloads; it is above the obs layer, not inside it
    from repro.workloads import FanoutConfig, run_fanout_experiment

    profiler = Profiler()
    slo = _slo_engine()
    results = run_fanout_experiment(
        FanoutConfig(
            listener_counts=(1, 100, 10_000),
            writes_per_level=15,
            seed=seed,
            profiler=profiler,
            slo=slo,
        )
    )
    metrics = {}
    for r in results:
        metrics[f"notify_p50_us@{r.listeners}"] = metric(r.notify_p50_us, "us")
        metrics[f"notify_p99_us@{r.listeners}"] = metric(r.notify_p99_us, "us")
        metrics[f"frontend_tasks@{r.listeners}"] = metric(
            r.frontend_tasks_at_end, "tasks", kind="exact"
        )
    # staleness events land throughout the (per-level) runs; judge over a
    # window that spans them all
    payload = bench_payload(
        name="gate_fanout",
        figure="fig09",
        metrics=metrics,
        slos=slo.verdict_block(600_000_000),
        raw={"profile": profiler.to_dict()},
    )
    return payload, {}


def gate_commit(
    seed: int = GATE_SEED, canary: Optional[str] = None, ops: int = 40
) -> tuple[dict, dict]:
    """Functional commit cell: the Backend seven-step write over Spanner.

    Latency is the sim-clock delta across each commit — zero on the
    clean path (nothing in the functional stack advances the clock), and
    exactly the injected delays when a fault plan is installed. This is
    the cell the ``spanner.tablet_slow`` canary inflates.
    """
    # reprolint: disable=layering -- the gate harness drives the functional stack; it is above the obs layer, not inside it
    from repro.core.backend import set_op, update_op
    # reprolint: disable=layering -- the gate harness drives the functional stack; it is above the obs layer, not inside it
    from repro.core.firestore import FirestoreService
    # reprolint: disable=layering -- the canary fault plan is how the gate proves it can fail
    from repro.faults.plan import FaultPlan, install
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stats import percentile_or
    from repro.obs.tracer import Tracer
    from repro.sim.clock import SimClock
    from repro.sim.rand import SimRandom

    sim_clock = SimClock()
    metrics_registry = MetricsRegistry()
    profiler = Profiler(metrics=metrics_registry)
    slo = _slo_engine(metrics=metrics_registry)
    service = FirestoreService(
        clock=sim_clock,
        tracer=Tracer(sim_clock, SimRandom(seed).fork("tracer")),
        metrics=metrics_registry,
        profiler=profiler,
    )
    database = service.create_database("gate")
    if canary is not None:
        install(FaultPlan(seed, rates={canary: 1.0}), database)
    clock = service.clock
    latencies: list[int] = []
    committed = 0
    for i in range(ops):
        clock.advance(25_000)  # 40 commits/s of offered load
        op = (
            set_op(f"orders/o{i:04d}", {"total": i * 10, "status": "new"})
            if i % 3 != 2
            else update_op(f"orders/o{i - 2:04d}", {"status": "paid"})
        )
        start = clock.now_us
        database.commit([op])
        committed += 1
        latencies.append(clock.now_us - start)
        slo.record("request", clock.now_us, True)
    lookups = 0
    for i in range(0, ops, 5):
        database.lookup(f"orders/o{i:04d}")
        lookups += 1
    query_result = database.run_query(database.query("orders"))
    ledger = {
        (row["subsystem"], row["operation"]): (row["sim_us"], row["calls"])
        for row in profiler.rows()
    }
    commit_us, commit_calls = ledger.get(("spanner", "commit"), (0, 0))
    slow_us, _ = ledger.get(("spanner", "read.tablet_slow"), (0, 0))
    payload = bench_payload(
        name="gate_commit",
        figure="",
        metrics={
            "commits": metric(committed, "count", kind="exact"),
            "commit_p50_us": metric(percentile_or(latencies, 50), "us"),
            "commit_p99_us": metric(percentile_or(latencies, 99), "us"),
            "documents": metric(
                len(query_result.documents), "count", kind="exact"
            ),
            "lookups": metric(lookups, "count", kind="exact"),
            "spanner_commit_calls": metric(
                commit_calls, "count", kind="exact"
            ),
            "spanner_commit_us": metric(commit_us, "us"),
            "spanner_tablet_slow_us": metric(slow_us, "us"),
        },
        slos=slo.verdict_block(clock.now_us),
        raw={
            "profile": profiler.to_dict(),
            "canary": canary or "",
            "seed": seed,
        },
    )
    return payload, {}


def gate_datashape(seed: int = 5) -> tuple[dict, dict]:
    """Data-shape cell (tracks figure 10): commit latency vs doc size."""
    # reprolint: disable=layering -- the gate harness drives workloads; it is above the obs layer, not inside it
    from repro.workloads import run_doc_size_sweep

    results = run_doc_size_sweep(
        sizes_kb=(10, 100), commits_per_size=12, seed_docs=60, seed=seed
    )
    metrics = {}
    for r in results:
        metrics[f"commit_p50_us@{r.parameter}kb"] = metric(
            r.commit_p50_us, "us"
        )
        metrics[f"participants@{r.parameter}kb"] = metric(
            round(r.participants_per_commit, 2), "tablets", tolerance=0.1
        )
        metrics[f"index_entries@{r.parameter}kb"] = metric(
            r.index_entries_per_commit, "rows", kind="exact"
        )
    payload = bench_payload(
        name="gate_datashape", figure="fig10", metrics=metrics
    )
    return payload, {}


def gate_chaos(seed: int = 11) -> tuple[dict, dict]:
    """Chaos smoke cell: one checked run; convergence is an SLO."""
    # reprolint: disable=layering -- the gate harness drives the chaos runner; it is above the obs layer, not inside it
    from repro.faults.chaos import run_chaos

    run = run_chaos("commit", seed=seed, mix="chaos")
    payload = bench_payload(
        name="gate_chaos",
        figure="",
        metrics={
            "attempted": metric(run.attempted, "count", kind="exact"),
            "succeeded": metric(run.succeeded, "count", kind="exact"),
            "availability": metric(
                round(run.availability, 6), "ratio", tolerance=0.1
            ),
            "violations": metric(len(run.violations), "count", kind="exact"),
            "total_injected": metric(
                sum(run.injected.values()), "count", kind="exact"
            ),
            "latency_p50_us": metric(run.latency_percentile(50), "us"),
            "latency_p99_us": metric(run.latency_percentile(99), "us"),
        },
        slos=run.slo_verdicts(),
        raw={"summary": run.to_dict()},
    )
    return payload, {}


def gate_failover(seed: int = 3) -> tuple[dict, dict]:
    """Failover cell: leader-region outage mid-traffic, checked end to end.

    Runs the ``failover`` chaos scenario under the ``region-outage`` mix
    (an armed leader outage at the halfway point plus rate-driven region
    faults), then judges replication lag and post-recovery convergence
    against :func:`REPLICATION_SLOS`. The two headline numbers the gate
    pins are the replication-lag p99 and the failover unavailability
    window (sim time between the leader going dark and a successor
    winning the election).
    """
    # reprolint: disable=layering -- the gate harness drives the chaos runner; it is above the obs layer, not inside it
    from repro.faults.chaos import run_chaos

    run = run_chaos("failover", seed=seed, mix="region-outage")
    extra = run.extra or {}
    slo = SloEngine(REPLICATION_SLOS(window_us=600_000_000))
    # lag samples are taken once per op on the scenario's sim clock; the
    # engine only needs a replay-stable bucketing, so spread them one per
    # 10ms of judged time rather than threading the raw timestamps out.
    lag_samples = extra.get("lag_samples_us", [])
    for i, lag_us in enumerate(lag_samples):
        slo.record_latency("replication.lag", i * 10_000, lag_us)
    slo.record(
        "replication.convergence",
        len(lag_samples) * 10_000,
        bool(run.converged),
    )
    slos = dict(run.slo_verdicts())
    slos.update(slo.verdict_block(600_000_000 - 1))
    payload = bench_payload(
        name="gate_failover",
        figure="",
        metrics={
            "attempted": metric(run.attempted, "count", kind="exact"),
            "succeeded": metric(run.succeeded, "count", kind="exact"),
            "availability": metric(
                round(run.availability, 6), "ratio", tolerance=0.1
            ),
            "violations": metric(len(run.violations), "count", kind="exact"),
            "failovers": metric(
                extra.get("failovers", 0), "count", kind="exact"
            ),
            "unavailability_us": metric(
                extra.get("unavailability_us", 0), "us"
            ),
            "replication_lag_p99_us": metric(
                extra.get("replication_lag_p99_us", 0), "us"
            ),
            "log_entries": metric(
                extra.get("log_entries", 0), "count", kind="exact"
            ),
            "latency_p50_us": metric(run.latency_percentile(50), "us"),
            "latency_p99_us": metric(run.latency_percentile(99), "us"),
        },
        slos=slos,
        raw={"summary": run.to_dict()},
    )
    return payload, {}


def gate_overload(seed: int = 9) -> tuple[dict, dict]:
    """Overload cell: the metastable-failure contrast, pinned.

    Runs the ``metastable`` chaos scenario (fault-free mix): the same
    tenant fleet twice through a 1.2s 10x load surge — once with the
    full degradation stack (adaptive admission, deadline propagation,
    retry budgets, server backoff hints) and once with the fragile
    legacy config (static queue bound, unbudgeted fixed-interval
    retries, no deadlines). The two hard verdicts the gate pins are
    ``recovered`` (resilient arm back above 90% of pre-surge goodput)
    and ``collapsed`` (fragile arm stuck below 50% after the trigger
    clears) — the paper's metastable-failure demonstration — plus zero
    checker violations and the :data:`~repro.obs.slo.OVERLOAD_SLOS`
    verdict block. The control-loop counters (adaptive-limit decreases,
    door sheds, budget exhaustions) are exact: they are the overload
    machinery's observable decisions, deterministic per seed.
    """
    # reprolint: disable=layering -- the gate harness drives the chaos runner; it is above the obs layer, not inside it
    from repro.faults.chaos import run_chaos

    run = run_chaos("metastable", seed=seed, mix="none")
    extra = run.extra or {}
    resilient = extra.get("resilient", {})
    fragile = extra.get("fragile", {})
    slos = dict(run.slo_verdicts())
    slos.update(extra.get("overload_slo", {}))
    payload = bench_payload(
        name="gate_overload",
        figure="",
        metrics={
            "violations": metric(len(run.violations), "count", kind="exact"),
            "recovered": metric(
                int(bool(extra.get("recovered"))), "bool", kind="exact"
            ),
            "collapsed": metric(
                int(bool(extra.get("collapsed"))), "bool", kind="exact"
            ),
            "resilient_recovery_ratio": metric(
                round(resilient.get("recovery_ratio", 0.0), 4), "ratio"
            ),
            "fragile_recovery_ratio": metric(
                round(fragile.get("recovery_ratio", 0.0), 4), "ratio"
            ),
            "resilient_recovery_per_s": metric(
                round(resilient.get("recovery_per_s", 0.0), 1), "ops/s"
            ),
            "adaptive_limit": metric(
                resilient.get("adaptive_limit", 0), "rpcs", kind="exact"
            ),
            "limit_decreases": metric(
                resilient.get("limit_decreases", 0), "count", kind="exact"
            ),
            "door_sheds": metric(
                resilient.get("door_sheds", 0), "count", kind="exact"
            ),
            "budget_exhausted": metric(
                resilient.get("budget_exhausted", 0), "count", kind="exact"
            ),
            "breaker_opens": metric(
                resilient.get("breaker_opens", 0), "count", kind="exact"
            ),
            "latency_p50_us": metric(
                resilient.get("latency_p50_us", 0), "us"
            ),
            "latency_p99_us": metric(
                resilient.get("latency_p99_us", 0), "us"
            ),
        },
        slos=slos,
        raw={"summary": run.to_dict(), "seed": seed},
    )
    return payload, {}


#: what the differential blame table must name per traced scenario —
#: the attribution claim in executable form: overload tails are queueing
#: plus retry pauses, failover tails are quorum RTTs plus log apply
TAIL_BLAME_EXPECTED = {
    "overload-storm": ("queue", "retry_backoff"),
    "failover": ("quorum_rtt", "replication_apply"),
}


def gate_tail() -> tuple[dict, dict]:
    """Tail-attribution cell: the critical-path engine, pinned end to end.

    Re-runs the two traced chaos scenarios the ``repro.obs.critpath``
    CLI defaults to (:data:`~repro.obs.critpath.SCENARIO_DEFAULTS`) and
    judges the attribution itself, not just the latency: coverage must
    hold the >= 99% target (every microsecond of the tail explained, the
    residual ``unattributed`` bucket below 1%), and the p50-vs-p99
    differential blame table must keep naming the *right* causes —
    :data:`TAIL_BLAME_EXPECTED` — so a refactor that silently unhooks a
    wait tap or misclassifies a gap fails the gate by name. Counts and
    the unattributed residual are exact (the engine is deterministic per
    seed); the latency percentiles are stat. Artifacts carry the full
    CRITPATH json + flamegraph SVG per scenario for CI upload.
    """
    import json

    # reprolint: disable=layering -- the gate harness drives the chaos runner; it is above the obs layer, not inside it
    from repro.faults.chaos import run_chaos
    from repro.obs.critpath import SCENARIO_DEFAULTS, critpath_flamegraph_svg

    metrics: dict[str, dict] = {}
    artifacts: dict[str, str] = {}
    raw: dict[str, dict] = {}
    slos: dict[str, dict] = {}
    for scenario, (mix, seed) in SCENARIO_DEFAULTS.items():
        run = run_chaos(scenario, seed=seed, mix=mix, trace=True)
        summary = (run.extra or {}).get("critpath")
        if summary is None:  # pragma: no cover - wiring bug, fail loudly
            raise RuntimeError(f"{scenario}: traced run produced no critpath")
        coverage = summary["coverage"]
        named = set()
        for block in summary["operations"].values():
            named.update(block["top_tail_causes"])
        expected = TAIL_BLAME_EXPECTED[scenario]
        tag = scenario.replace("-storm", "").replace("-", "_")
        metrics[f"{tag}_requests"] = metric(
            summary["requests"], "count", kind="exact"
        )
        metrics[f"{tag}_spans"] = metric(
            summary["spans"], "count", kind="exact"
        )
        metrics[f"{tag}_unattributed_us"] = metric(
            coverage["unattributed_us"], "us", kind="exact"
        )
        metrics[f"{tag}_coverage"] = metric(
            round(coverage["ratio"], 6), "ratio", tolerance=0.01
        )
        metrics[f"{tag}_coverage_ok"] = metric(
            int(bool(coverage["ok"])), "bool", kind="exact"
        )
        metrics[f"{tag}_blame_ok"] = metric(
            int(all(cause in named for cause in expected)),
            "bool",
            kind="exact",
        )
        metrics[f"{tag}_retained_traces"] = metric(
            summary.get("sampler", {}).get("retained", 0),
            "count",
            kind="exact",
        )
        for operation, block in summary["operations"].items():
            metrics[f"{tag}_{operation}_p99_us"] = metric(
                block["p99_us"], "us"
            )
        slos.update(run.slo_verdicts())
        raw[scenario] = {
            "seed": seed,
            "mix": mix,
            "top_tail_causes": {
                operation: block["top_tail_causes"]
                for operation, block in summary["operations"].items()
            },
            "coverage": coverage,
            # slim per-operation blocks: what the dashboard's
            # decomposition table and tail-blame trend render from
            "operations": {
                operation: {
                    "count": block["count"],
                    "p50_us": block["p50_us"],
                    "p99_us": block["p99_us"],
                    "decomposition": block["decomposition"],
                    "blame": block["blame"],
                }
                for operation, block in summary["operations"].items()
            },
        }
        artifacts[f"CRITPATH_{scenario}.json"] = (
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        artifacts[f"CRITPATH_{scenario}.svg"] = critpath_flamegraph_svg(
            summary, title=f"critical path: {scenario} (seed {seed})"
        )
    payload = bench_payload(
        name="gate_tail",
        figure="",
        metrics=metrics,
        slos=slos,
        raw=raw,
    )
    return payload, artifacts


#: the fixed kernel run the speed cell times: YCSB A at 2000 QPS for 25
#: simulated seconds executes exactly this many events at seed 42
SPEED_RUN_EVENTS = 200_505
SPEED_TRIALS = 3


def gate_speed(seed: int = GATE_SEED) -> tuple[dict, dict]:
    """Simulator speed cell: wall-clock throughput of the event kernel.

    Times the fixed YCSB kernel run (workload A, 2000 QPS, 25 simulated
    seconds, seed 42 — exactly :data:`SPEED_RUN_EVENTS` events) with no
    observability attached: the bare configuration the kernel perf work
    optimizes. Two kinds of metric share the payload deliberately. The
    wall-clock numbers (events/sec, wall-us per sim-us) are ``stat`` with
    a wide band — CI machines differ, so the committed baseline is a
    floor against order-of-magnitude regressions, not a benchmark. The
    event count and latency percentiles are ``exact``: making the
    simulator faster must never change what it simulates.
    """
    from repro.sim.wallclock import best_of

    # reprolint: disable=layering -- the gate harness drives workloads; it is above the obs layer, not inside it
    from repro.workloads import YcsbConfig, YcsbRunner

    def run_once():
        runner = YcsbRunner(
            YcsbConfig(
                workload="A",
                target_qps=2000,
                duration_s=25,
                measure_last_s=10,
                seed=seed,
            )
        )
        return runner, runner.run()

    (runner, result), best_ns = best_of(SPEED_TRIALS, run_once)
    kernel = runner.cluster.kernel
    executed = kernel.executed
    sim_us = kernel.now_us
    events_per_sec = executed / (best_ns / 1e9)
    wall_us_per_sim_us = (best_ns / 1000) / sim_us
    payload = bench_payload(
        name="gate_speed",
        figure="",
        metrics={
            "events_executed": metric(executed, "events", kind="exact"),
            "read_p50_us": metric(result.read_p50_us, "us", kind="exact"),
            "read_p99_us": metric(result.read_p99_us, "us", kind="exact"),
            "update_p50_us": metric(
                result.update_p50_us, "us", kind="exact"
            ),
            "update_p99_us": metric(
                result.update_p99_us, "us", kind="exact"
            ),
            "events_per_sec": metric(
                round(events_per_sec), "events/s", tolerance=0.75
            ),
            "wall_us_per_sim_us": metric(
                round(wall_us_per_sim_us, 6), "ratio", tolerance=0.75
            ),
        },
        raw={
            "best_wall_ns": best_ns,
            "trials": SPEED_TRIALS,
            "sim_us": sim_us,
        },
    )
    return payload, {}


def record_speed_ledger(out_path, seed: int = GATE_SEED) -> dict:
    """Profile the fixed speed run and write the hot-path ledger.

    The ledger is what ``python -m repro.analysis`` seeds its
    hot-path set from: every project function with its fraction of
    cProfile self time on the same fixed kernel run ``gate_speed``
    times. It is *committed* (``benchmarks/profiles/speed_ledger.json``)
    so lint output is deterministic and reviewable — re-record it when
    the hot profile shifts, and the diff shows up in review.
    """
    import cProfile
    import json
    import pathlib

    # reprolint: disable=layering -- locating the installed package root to filter profile rows, not a subsystem dependency
    import repro

    # reprolint: disable=layering -- the gate harness drives workloads; it is above the obs layer, not inside it
    from repro.workloads import YcsbConfig, YcsbRunner

    package_root = pathlib.Path(repro.__file__).resolve().parent

    def run() -> None:
        YcsbRunner(
            YcsbConfig(
                workload="A",
                target_qps=2000,
                duration_s=25,
                measure_last_s=10,
                seed=seed,
            )
        ).run()

    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    entries = profile.getstats()
    total_self = sum(entry.inlinetime for entry in entries) or 1.0
    functions = []
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # builtins
            continue
        try:
            rel = (
                pathlib.Path(code.co_filename)
                .resolve()
                .relative_to(package_root)
                .as_posix()
            )
        except ValueError:
            continue
        fraction = entry.inlinetime / total_self
        if fraction < 0.001:
            continue
        functions.append(
            {
                "file": rel,
                "function": code.co_name,
                "qualname": getattr(code, "co_qualname", code.co_name),
                "line": code.co_firstlineno,
                "self_fraction": round(fraction, 6),
                "self_s": round(entry.inlinetime, 6),
                "calls": entry.callcount,
            }
        )
    functions.sort(
        key=lambda f: (-f["self_fraction"], f["file"], f["function"])
    )
    ledger = {
        "run": "gate_speed kernel run (YCSB A, 2000 QPS, 25 sim-s, seed "
        f"{seed})",
        "note": "committed input for repro.analysis hot paths; "
        "re-record with: python -m repro.obs.bench --record-speed-ledger",
        "functions": functions,
    }
    out = pathlib.Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return ledger


#: cell name -> builder; the CLI runs them in this (sorted-stable) order
GATE_CELLS = {
    "gate_ycsb": gate_ycsb,
    "gate_fanout": gate_fanout,
    "gate_commit": gate_commit,
    "gate_datashape": gate_datashape,
    "gate_chaos": gate_chaos,
    "gate_failover": gate_failover,
    "gate_overload": gate_overload,
    "gate_tail": gate_tail,
    "gate_speed": gate_speed,
}


def run_gate(
    seed: int = GATE_SEED, canary: Optional[str] = None
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Run every gate cell; returns (payloads, artifacts) keyed by cell.

    ``canary`` (a fault site, normally :data:`CANARY_SITE`) is installed
    on the functional-commit cell only — the other cells stay clean so a
    canary run fails for exactly one attributable reason.
    """
    payloads: dict[str, dict] = {}
    artifacts: dict[str, dict] = {}
    for name, builder in GATE_CELLS.items():
        if name == "gate_commit":
            payload, extras = builder(canary=canary)
        else:
            payload, extras = builder()
        payloads[name] = payload
        if extras:
            artifacts[name] = extras
    return payloads, artifacts
