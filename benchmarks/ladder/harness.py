"""Run one workload and turn what it measured into named metrics.

``run_end_to_end`` is the untraced run behind the end-to-end metrics;
``run_traced`` runs a quarter of the operations twice — untraced, then
under the span tracer — and derives the per-layer metrics, the tracing
overhead, and the check that tracing changed no output. Metric names,
units and directions live in ``BENCHMARK.json`` at the repository root;
``END_TO_END`` and ``per_layer_names`` below must agree with it (the
smoke test checks).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from benchmarks.ladder.batch import Chaos, Fleet, FleetTenants
from benchmarks.ladder.functional import SHAPES, Crud, Listen, Lookup, Query
from benchmarks.ladder.layers import HARNESS, LAYERS
from benchmarks.ladder.trace import Tracer
from benchmarks.ladder.workload import SPARE, Size, Workload

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / "benchmarks" / "out" / "ladder"

#: name -> (class, documents set up, timed ops per ``--seconds`` second).
#: The rates are what the reference box (2 cores) sustains, so
#: ``--seconds N`` measures for about N seconds there; the work is fixed
#: by count so both sides of a comparison do identical work. For the
#: batch workloads an "op" of size is a simulated second (``fleet*``) or
#: one operation of each chaos scenario.
WORKLOADS: dict[str, tuple[type[Workload], int, float]] = {
    "crud": (Crud, 3000, 3000),
    "lookup": (Lookup, 3000, 10000),
    "query": (Query, 2500, 500),
    "listen": (Listen, 3000, 140),
    "fleet": (Fleet, 0, 17),
    "fleet_tenants": (FleetTenants, 0, 2.2),
    "chaos": (Chaos, 0, 500),
}

#: how many times the system is built; ``setup_s`` is the median
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us": "us",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics that are not the three per-layer columns
EXTRA_PER_LAYER = {
    "sim.events_per_op": "count",
    "core.index_entries.entries_per_commit": "count",
    "spanner.transaction.participants_per_commit": "count",
    "spanner.rows_per_doc": "count",
    "spanner.storage_bytes_per_user_byte": "ratio",
    "spanner.locks.conflicts": "count",
    "core.executor.docs_per_query": "count",
    **{f"core.executor.{shape}_p50_us": "us" for shape in SHAPES},
    "realtime.matcher.matches_per_change": "count",
    "realtime.frontend.delivered_per_listener_tick": "ratio",
    "service.pool.tasks_at_end": "count",
    "faults.injected_per_op": "count",
    "faults.attempts_per_success": "ratio",
    "check.events_per_op": "count",
    "harness.trace_overhead_ratio": "ratio",
    "harness.unattributed_share": "ratio",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.calls_per_op"] = "count"
        names[f"{layer}.self_us_per_op"] = "us"
        names[f"{layer}.self_share"] = "ratio"
    names.update(EXTRA_PER_LAYER)
    return names


def size_for(name: str, seconds: float) -> Size:
    """The input size that measures for about ``seconds`` seconds."""
    _, docs, rate = WORKLOADS[name]
    return Size(docs, max(1, round(rate * seconds)))


# -- measuring ------------------------------------------------------------------


def calibrate() -> int:
    """ns for a fixed pure-Python loop (dict, list, bytes work), min of 5.

    Reported beside every result so a disturbed run can be told from a
    slow change after the fact; never used to rescale a metric.
    """
    best = 0
    for _ in range(5):
        start = perf_counter_ns()
        table: dict[int, int] = {}
        chunks = []
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
            chunks.append(bytes((i & 255, (i >> 8) & 255)))
        joined = b"".join(chunks)
        total = sum(table.values()) + len(joined)
        elapsed = perf_counter_ns() - start
        if total and (best == 0 or elapsed < best):
            best = elapsed
    return best


def segment_rates(workload: Workload) -> list[float]:
    """Ops per second of each timed segment, best first."""
    return sorted(
        (ops * 1e9 / wall for ops, wall, _ in workload.segments), reverse=True
    )


class Measurement:
    """One built-and-run workload plus the times around it."""

    def __init__(
        self,
        workload: Workload,
        setup_s: list[float],
        calib: list[int],
        peak_rss_kb: int,
    ):
        self.workload = workload
        self.setup_samples = setup_s
        self.calib_ns = calib
        #: ``ru_maxrss`` when the planned segments had run
        self.peak_rss_kb = peak_rss_kb

    @property
    def wall_ns(self) -> int:
        return sum(wall for _, wall, _ in self.workload.segments)

    def ops_per_s(self) -> float:
        """Throughput of the third-best timed segment.

        Noise on a shared box only ever slows a segment down, so the best
        segments are the ones that ran undisturbed; the third-best rather
        than the best, so that one lucky segment cannot set the metric.
        """
        rates = segment_rates(self.workload)
        return rates[min(2, len(rates) - 1)]

    def op_us(self) -> float:
        """Headline-op latency of the third-best segment: each segment's
        median wall of the headline operation (wall per op where the
        operations are simulated and have no wall time of their own)."""
        latencies = sorted(op_ns for _, _, op_ns in self.workload.segments)
        return latencies[min(2, len(latencies) - 1)] / 1e3


#: the run has settled when its three best segments agree this closely
SETTLED_WITHIN = 0.03


def settled(workload: Workload) -> bool:
    """Whether the three best segments agree within ``SETTLED_WITHIN``.

    In a quiet stretch same-work segments repeat to a percent or two; a
    disturbed stretch slows them by different amounts, so agreement of
    the best three means the run has seen undisturbed time.
    """
    rates = segment_rates(workload)
    return len(rates) >= 3 and rates[2] >= rates[0] * (1 - SETTLED_WITHIN)


def measure(
    name: str,
    seed: int,
    size: Size,
    tracer=None,
    setups: int = 1,
    spare_s: float = 0.0,
):
    """Set up ``setups`` times (the last one is kept), run, verify.

    The planned segments always run. With ``spare_s`` the run may go on
    through the workload's spare segments, for at most that many more
    seconds, while it has not ``settled``.
    """
    cls = WORKLOADS[name][0]
    workload = None
    setup_s = []
    for _ in range(setups):
        workload = None
        gc.collect()
        start = perf_counter()
        workload = cls(seed, size)
        workload.setup()
        setup_s.append(perf_counter() - start)
    gc.collect()
    gc.freeze()
    try:
        calib = [calibrate()]
        with tracer.run() if tracer else contextlib.nullcontext():
            for index in range(workload.planned):
                workload.run_segment(index, tracer)
            # before any spare segment: the plan's memory, not the noise's
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            deadline = perf_counter() + spare_s
            while (
                spare_s
                and index + 1 < workload.planned * SPARE
                and perf_counter() < deadline
                and not settled(workload)
            ):
                index += 1
                workload.run_segment(index, tracer)
        workload.finish()
        calib.append(calibrate())
    finally:
        gc.unfreeze()
    workload.verify()
    return Measurement(workload, setup_s, calib, peak_rss_kb)


def percentile_block(samples: dict[str, list[int]]) -> dict[str, dict]:
    """p50, and p99 where at least ten samples lie beyond it, per class."""
    block = {}
    for cls, values in samples.items():
        if not values:
            continue
        ordered = sorted(values)
        entry = {"n": len(ordered), "p50_us": statistics.median(ordered) / 1e3}
        if len(ordered) >= 1000:
            entry["p99_us"] = ordered[math.ceil(0.99 * len(ordered)) - 1] / 1e3
        block[cls] = entry
    return block


def manifest(name: str, seed: int, seconds: float, size: Size) -> dict:
    """Enough about the run to explain it later."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "docs": size.docs,
        "ops_requested": size.ops,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _result(measurements: list[Measurement], metrics: dict, extra: dict) -> dict:
    last = measurements[-1].workload
    failed = sum(m.workload.failed for m in measurements)
    return {
        "correct": failed == 0,
        "attempted": max(1, last.ops),
        "failed": failed,
        "metrics": metrics,
        "result_digest": last.digest(),
        "failures": [f for m in measurements for f in m.workload.failures],
        **extra,
    }


def run_end_to_end(name: str, seed: int, seconds: float, import_s: float) -> dict:
    """The untraced run: every end-to-end metric, outputs verified."""
    size = size_for(name, seconds)
    measured = measure(name, seed, size, setups=SETUPS, spare_s=seconds / 2)
    work = measured.workload
    values = {
        "setup_s": import_s + statistics.median(measured.setup_samples),
        "ops_per_s": measured.ops_per_s(),
        "op_us": measured.op_us(),
        "peak_rss_mb": measured.peak_rss_kb / 1024,
    }
    detail = {
        "import_s": import_s,
        "setup_samples_s": measured.setup_samples,
        "timed_wall_s": measured.wall_ns / 1e9,
        "segments_planned": work.planned,
        "segments_run": len(work.segments),
        "headline": work.headline,
        "latency": percentile_block(work.samples),
        "segments_ops_per_s": [ops * 1e9 / wall for ops, wall, _ in work.segments],
        "segments_op_us": [op_ns / 1e3 for _, _, op_ns in work.segments],
    }
    if getattr(work, "executed", 0):
        detail["events_per_s"] = work.executed * 1e9 / measured.wall_ns
    if getattr(work, "docs_returned", 0):
        detail["docs_per_s"] = work.docs_returned * 1e9 / measured.wall_ns
    return _result(
        [measured],
        {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()},
        {
            "manifest": manifest(name, seed, seconds, size),
            "calib_ns": measured.calib_ns,
            "detail": detail,
        },
    )


def trace_workload(name: str, seed: int, size: Size, keep_spans: int = 200_000):
    """Run ``size`` untraced, then traced; returns both measurements, the
    tracer and every per-layer metric value."""
    plain = measure(name, seed, size)
    tracer = Tracer(keep=keep_spans)
    tracer.install()
    try:
        traced = measure(name, seed, size, tracer=tracer)
    finally:
        tracer.uninstall()
    work = traced.workload
    ops = max(1, work.ops)
    stats = tracer.layer_stats()
    total_ns = max(1, tracer.total_ns)
    values = dict.fromkeys(per_layer_names(), 0.0)
    for layer in LAYERS:
        entry = stats.get(layer)
        if entry:
            values[f"{layer}.calls_per_op"] = entry["calls"] / ops
            values[f"{layer}.self_us_per_op"] = entry["self_ns"] / 1e3 / ops
            values[f"{layer}.self_share"] = entry["self_ns"] / total_ns
    values.update(work.counts)
    values["sim.events_per_op"] = (
        sum(
            entry["calls"]
            for label, entry in tracer.name_stats().items()
            if label.startswith("callback:")
        )
        / ops
    )
    values["spanner.locks.conflicts"] = stats.get("spanner.locks", {}).get(
        "errors", 0
    )
    for shape in SHAPES:
        timings = plain.workload.samples.get(shape)
        if timings and name == "query":
            values[f"core.executor.{shape}_p50_us"] = (
                statistics.median(timings) / 1e3
            )
    values["harness.trace_overhead_ratio"] = traced.wall_ns / max(1, plain.wall_ns)
    values["harness.unattributed_share"] = (
        stats.get(HARNESS, {}).get("self_ns", 0) / total_ns
    )
    return plain, traced, tracer, values


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """A quarter of the ops, untraced then traced: per-layer metrics."""
    size = size_for(name, seconds).quarter()
    plain, traced, tracer, values = trace_workload(name, seed, size)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans_{name}.json", name)
    if traced.workload.digest() != plain.workload.digest():
        traced.workload.fail("traced and untraced result digests differ")
    units = per_layer_names()
    return _result(
        [plain, traced],
        {k: {"value": values[k], "unit": units[k]} for k in units},
        {
            "manifest": manifest(name, seed, seconds, size),
            "calib_ns": plain.calib_ns + traced.calib_ns,
            "detail": {
                "untraced_wall_s": plain.wall_ns / 1e9,
                "traced_wall_s": traced.wall_ns / 1e9,
                "spans_opened": tracer.spans_opened,
                "spans_kept": len(tracer.spans),
                "by_name": tracer.name_stats(),
            },
        },
    )


def write_result(name: str, traced: bool, result: dict) -> Path:
    """Persist the full result (the printed last line is a subset)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}{'_traced' if traced else ''}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def print_result(name: str, result: dict, stream=sys.stdout) -> None:
    """Human-readable metrics, then the one-line JSON the driver parses."""
    print(f"# {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, digest {result['result_digest'][:16]}", file=stream)
    for failure in result["failures"]:
        print(f"#   FAILED: {failure}", file=stream)
    for metric, entry in result["metrics"].items():
        if entry["value"]:
            print(f"{metric:52s} {entry['value']:>16.4f} {entry['unit']}", file=stream)
    for cls, entry in result["detail"].get("latency", {}).items():
        p99 = f" p99 {entry['p99_us']:.1f}" if "p99_us" in entry else ""
        print(f"#   {cls}: n {entry['n']} p50 {entry['p50_us']:.1f}{p99} us",
              file=stream)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), file=stream)
