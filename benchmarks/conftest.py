"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` regenerates one figure of the paper's evaluation
(section V): it runs the corresponding workload, prints the same
rows/series the paper plots, asserts the qualitative *shape* (who wins,
by roughly what factor, where the knees are), and reports the simulation
through pytest-benchmark so ``pytest benchmarks/ --benchmark-only`` gives
a timing inventory.

Every benchmark also drops a machine-readable ``BENCH_<name>.json``
summary (p50/p99/throughput per figure) via :func:`emit_bench_json`, so
the perf trajectory is trackable across PRs. Summaries land in
``benchmarks/out/`` (override with ``REPRO_BENCH_DIR``).

Observability is opt-in per run: ``pytest benchmarks/ --obs-trace``
additionally exports Chrome trace-event JSON (``TRACE_<name>.json``,
loadable in Perfetto) and plain-text reports (``REPORT_<name>.txt``) for
the benchmarks that own a tracer/metrics registry (see ``repro.obs``).
"""

from __future__ import annotations

import os
import pathlib

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--obs-trace",
        action="store_true",
        default=False,
        help="export repro.obs Chrome traces + text reports for benchmarks "
        "that support tracing (written next to BENCH_*.json)",
    )


@pytest.fixture(scope="session")
def obs_trace_enabled(request) -> bool:
    """Whether ``--obs-trace`` was passed for this benchmark run."""
    return request.config.getoption("--obs-trace")


def bench_output_dir() -> pathlib.Path:
    """Where benchmark artifacts go (``REPRO_BENCH_DIR`` overrides)."""
    override = os.environ.get("REPRO_BENCH_DIR")
    path = (
        pathlib.Path(override)
        if override
        else pathlib.Path(__file__).parent / "out"
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit_bench_json(
    name: str,
    raw: dict,
    figure: str = "",
    metrics: dict | None = None,
    slos: dict | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` in the unified schema.

    ``raw`` is the benchmark's full summary; ``metrics`` are the
    headline numbers ``benchmarks/render_experiments.py`` tabulates
    (build entries with :func:`bench_metric`); ``slos`` is an optional
    :mod:`repro.obs.slo` verdict block.
    """
    from repro.obs.bench import bench_payload, write_payload

    return write_payload(
        bench_output_dir(),
        bench_payload(
            name=name, figure=figure, metrics=metrics, slos=slos, raw=raw
        ),
    )


def bench_metric(value, unit: str = "", kind: str = "stat", tolerance: float = 0.30):
    """One unified-schema metric entry (see :mod:`repro.obs.bench`)."""
    from repro.obs.bench import metric

    return metric(value, unit, kind=kind, tolerance=tolerance)


def export_obs(name: str, tracer=None, metrics=None) -> None:
    """Export a benchmark's trace + report artifacts (obs opt-in)."""
    from repro.obs import write_chrome_trace, write_text_report

    out = bench_output_dir()
    if tracer is not None:
        write_chrome_trace(tracer, str(out / f"TRACE_{name}.json"))
    write_text_report(
        str(out / f"REPORT_{name}.txt"), tracer, metrics, title=name
    )


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render one paper-style table to stdout."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def ms(us: int | float) -> str:
    """Microseconds -> milliseconds string for table cells."""
    return f"{us / 1000:.2f}ms"


@pytest.fixture(scope="session")
def ycsb_matrix(request):
    """Figures 7 and 8 come from the same YCSB runs; do them once.

    Workloads A (50/50) and B (95/5), uniform keys, 900-byte documents,
    multiple target QPS levels — scaled to 2 minutes per cell (the paper
    uses 10) with the last half measured.

    With ``--obs-trace``, one additional (smaller) workload-A cell runs
    fully traced and its span tree + metrics are exported.
    """
    from repro.workloads import YcsbConfig, YcsbRunner

    qps_levels = (250, 500, 1000, 2000)
    results = {}
    for workload in ("A", "B"):
        for qps in qps_levels:
            config = YcsbConfig(
                workload=workload,
                target_qps=qps,
                duration_s=120,
                measure_last_s=60,
                seed=42,
            )
            results[(workload, qps)] = YcsbRunner(config).run()

    if request.config.getoption("--obs-trace"):
        traced = YcsbRunner(
            YcsbConfig(
                workload="A",
                target_qps=500,
                duration_s=30,
                measure_last_s=15,
                seed=42,
                trace=True,
            )
        )
        traced.run()
        export_obs("ycsb_a_traced", traced.tracer, traced.metrics)

    return qps_levels, results
