"""repro.obs — end-to-end tracing and metrics observability.

The paper's operations story (section VI) is built on production
monitoring; this package gives the reproduction the same visibility:

- :class:`Tracer` / :class:`Span`: Dapper-style span trees over the
  simulated clock, with deterministic ids from seeded random streams.
- :data:`NULL_TRACER`: the zero-overhead disabled singleton every
  component defaults to.
- :class:`MetricsRegistry`: labeled counters/gauges/histograms keyed by
  ``database_id``/``operation``.
- Exporters: Chrome trace-event JSON (open in Perfetto) and a plain-text
  per-run report.
- :func:`trace_full_commit`: run one fully-traced commit through the
  functional stack — Frontend RPC, the Backend's seven-step write,
  Spanner 2PC, Real-time Prepare/Accept, listener delivery.
- :class:`Profiler` / :data:`NULL_PROFILER`: the deterministic sim-time
  profiler attributing busy time to (subsystem, operation, database).
- :class:`SloSpec` / :class:`SloEngine`: declarative objectives with
  rolling-window burn-rate evaluation.
- :mod:`repro.obs.stats`: the one home for percentile arithmetic.
- ``repro.obs.bench`` (not imported here): the unified BENCH schema
  every ``BENCH_*.json`` shares.
"""

from repro.obs.export import (
    chrome_trace_json,
    dump_report,
    render_text_report,
    to_chrome_trace,
    write_chrome_trace,
    write_text_report,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.perf import NULL_PROFILER, Profiler, collapse_spans, flamegraph_svg
from repro.obs.sampling import trace_full_commit
from repro.obs.slo import (
    DEFAULT_SLOS,
    OVERLOAD_SLOS,
    REPLICATION_SLOS,
    SloEngine,
    SloSpec,
    SloVerdict,
)
from repro.obs.stats import boxplot, percentile, percentile_or, summarize
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "OVERLOAD_SLOS",
    "Profiler",
    "REPLICATION_SLOS",
    "SloEngine",
    "SloSpec",
    "SloVerdict",
    "Span",
    "SpanContext",
    "Tracer",
    "boxplot",
    "chrome_trace_json",
    "collapse_spans",
    "dump_report",
    "flamegraph_svg",
    "percentile",
    "percentile_or",
    "render_text_report",
    "summarize",
    "to_chrome_trace",
    "trace_full_commit",
    "write_chrome_trace",
    "write_text_report",
]
