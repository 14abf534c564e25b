"""Trace and metrics exporters.

Two formats:

- :func:`to_chrome_trace` / :func:`write_chrome_trace`: the Chrome
  trace-event JSON format (``{"traceEvents": [...]}``), loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``. Spans become
  complete ("ph": "X") events; span events become instant ("ph": "i")
  events; components map to synthetic process ids with metadata naming
  events, so each component renders as its own track.
- :func:`render_text_report`: a plain-text per-run report combining the
  span inventory with the metrics registry — the quick-look artifact a
  benchmark drops next to its numbers.

Both exports are byte-stable for a fixed seed: ordering is derived from
span finish order and sorted metric keys only. :func:`history_jsonl` is
the one canonical form of a recorded ``repro.check`` history.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, TextIO, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.stats import percentile
from repro.obs.tracer import NullTracer, Span, Tracer

TracerLike = Union[Tracer, NullTracer]


def _component_ids(spans: list[Span]) -> dict[str, int]:
    """Assign pids to components in first-seen (deterministic) order."""
    ids: dict[str, int] = {}
    for span in spans:
        if span.component not in ids:
            ids[span.component] = len(ids) + 1
    return ids


def to_chrome_trace(tracer: TracerLike) -> dict:
    """Render every finished span as Chrome trace-event JSON (a dict)."""
    spans = sorted(
        tracer.finished, key=lambda s: (s.start_us, s.end_us or s.start_us)
    )
    pids = _component_ids(spans)
    events: list[dict] = []
    for component, pid in pids.items():
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": component},
            }
        )
    for span in spans:
        pid = pids[span.component]
        args = {str(k): span.attributes[k] for k in sorted(span.attributes)}
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "ph": "X",
                "pid": pid,
                # one row per trace within each component keeps concurrent
                # requests from overlapping in the UI
                "tid": int(span.trace_id[:8], 16) % 1_000_000,
                "name": span.name,
                "cat": span.component,
                "ts": span.start_us,
                "dur": (span.end_us or span.start_us) - span.start_us,
                "args": args,
            }
        )
        for ts, name, attrs in span.events:
            events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": int(span.trace_id[:8], 16) % 1_000_000,
                    "name": name,
                    "cat": span.component,
                    "ts": ts,
                    "s": "t",
                    "args": {str(k): attrs[k] for k in sorted(attrs)},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(tracer: TracerLike) -> str:
    """The Chrome trace export serialized to a canonical JSON string."""
    return json.dumps(
        to_chrome_trace(tracer), sort_keys=True, separators=(",", ":")
    )


def history_jsonl(histories: Iterable[Iterable[dict]]) -> str:
    """Recorded histories as JSONL: one compact, key-sorted JSON line per
    event, each newline-terminated, histories back to back."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for events in histories
        for event in events
    )


def write_chrome_trace(tracer: TracerLike, path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(tracer))
    return path


# -- plain-text report -------------------------------------------------------


def _escape_label(value: str) -> str:
    """Escape label text so ``{k=v,...}`` stays parseable and one-line."""
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("{", "\\{")
        .replace("}", "\\}")
        .replace(",", "\\,")
        .replace("=", "\\=")
    )


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f"{_escape_label(str(k))}={_escape_label(str(v))}" for k, v in labels
    )
    return "{" + inner + "}"


def render_text_report(
    tracer: Optional[TracerLike] = None,
    metrics: Optional[MetricsRegistry] = None,
    title: str = "run report",
    profiler=None,
) -> str:
    """A human-readable per-run summary of spans, metrics, and profile."""
    lines = [f"=== {title} ==="]
    if tracer is not None and tracer.finished:
        lines.append("")
        lines.append(f"-- spans ({len(tracer.finished)} finished, "
                     f"{tracer.dropped} dropped) --")
        by_name: dict[str, list[int]] = {}
        for span in tracer.finished:
            by_name.setdefault(span.name, []).append(span.duration_us)
        width = max(len(name) for name in by_name)
        for name in sorted(by_name):
            durations = sorted(by_name[name])
            count = len(durations)
            total = sum(durations)
            p50 = percentile(durations, 50, presorted=True)
            worst = durations[-1]
            lines.append(
                f"{name.ljust(width)}  count={count:<7d} "
                f"total={total}us p50={p50}us max={worst}us"
            )
    elif tracer is not None:
        lines.append("")
        lines.append("-- spans: none recorded --")
    if metrics is not None and len(metrics):
        lines.append("")
        lines.append(f"-- metrics ({len(metrics)}) --")
        for metric in metrics.collect():
            label = f"{metric.name}{_format_labels(metric.labels)}"
            if isinstance(metric, Histogram):
                lines.append(
                    f"{label}  count={metric.count} p50={metric.p50} "
                    f"p99={metric.p99} total={metric.total}"
                )
            elif isinstance(metric, (Counter, Gauge)):
                lines.append(f"{label}  value={metric.value}")
    if profiler is not None and profiler:
        lines.append("")
        lines.append("-- profile --")
        lines.append(profiler.text_table().rstrip("\n"))
    lines.append("")
    return "\n".join(lines)


def write_text_report(
    path: str,
    tracer: Optional[TracerLike] = None,
    metrics: Optional[MetricsRegistry] = None,
    title: str = "run report",
    profiler=None,
) -> str:
    """Write the text report to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_text_report(tracer, metrics, title, profiler))
    return path


def dump_report(
    stream: TextIO,
    tracer: Optional[TracerLike] = None,
    metrics: Optional[MetricsRegistry] = None,
    title: str = "run report",
    profiler=None,
) -> None:
    """Print the text report to an open stream."""
    stream.write(render_text_report(tracer, metrics, title, profiler))
