"""Critical-path latency attribution: explain every microsecond of the tail.

Per-operation latency histograms say *that* the p99 is slow; this module
says *why*. Every blocking interval in the reproduction is annotated at
its source with a structured wait cause (:data:`repro.obs.tracer.WAIT_CAUSES`
— queue, lock_wait, quorum_rtt, retry_backoff, ...), and this engine
turns one run's span trees plus wait records into:

1. **The critical path of each request** — the longest chain of blocking
   work from root start to root end, extracted by a backward walk that
   always follows the last-finishing child (Jaeger's algorithm). Time
   not covered by a child span is a *gap*, classified greedily against
   the trace's interval wait records; whatever remains is charged to the
   owning span's declared ``self_cause`` attribute, or ``unattributed``.
2. **Per-operation latency decompositions** — total microseconds per
   wait cause, as shares of the operation's total time.
3. **Differential tail attribution** — for each operation, the mean
   per-cause contribution in the p99 bucket versus the p50 bucket. The
   causes whose absolute contribution *grows* in the tail are the blame
   table: the p50 and the p99 are usually slow for different reasons,
   and naming the difference is the actionable output.
4. **Histogram exemplars** — each latency bucket links to a concrete
   trace id (preferring ones the :class:`repro.obs.sampling.TailSampler`
   retained a full span tree for), so a tail bucket in a dashboard is
   one click from the trace that explains it.

Two kinds of wait feed the accounting. *Interval* waits elapsed on the
simulated timeline ([start_us, end_us]) and classify gaps by overlap.
*Modeled* waits are priced by the stack but never advance the clock —
quorum ack RTTs, TrueTime commit-wait, network hops — and are added on
top of the elapsed critical path, so a request's attributed total is
``root elapsed + modeled``. Coverage (attributed / total) is gated at
:data:`COVERAGE_TARGET`: if more than 1% of tail time is unattributed,
the instrumentation has a hole and the gate fails.

Everything is deterministic: requests sort by (start, trace id),
greedy gap classification sorts waits by (start, end, cause), and the
JSON summary is built in sorted order — same seed, byte-identical
artifact.

CLI::

    python -m repro.obs.critpath [--scenario overload-storm,failover]
        [--seed N] [--mix M] [--ops N] [--out DIR] [--no-svg]

runs the chaos scenario(s) with tracing on, prints the text report, and
writes ``CRITPATH_<scenario>.json`` + ``.svg`` artifacts.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.stats import percentile_or
from repro.obs.tracer import WAIT_CAUSES

#: residual critical-path time no wait record or self_cause explains
UNATTRIBUTED = "unattributed"
#: span attribute naming the cause of its own (non-gap) work, e.g. the
#: serving pools set ``self_cause: service`` on exec spans
SELF_CAUSE_ATTR = "self_cause"
#: minimum attributed share of total request time (the ≤1% rule)
COVERAGE_TARGET = 0.99
#: how many slowest requests the summary narrates segment by segment
SLOWEST_LIMIT = 5
#: blame-table rows kept per operation
BLAME_LIMIT = 8


class PathSegment:
    """One critical-path slice: [start_us, end_us) charged to a cause."""

    __slots__ = ("span_id", "span_name", "start_us", "end_us", "cause", "detail")

    def __init__(self, span_id, span_name, start_us, end_us, cause, detail=""):
        self.span_id = span_id
        self.span_name = span_name
        self.start_us = start_us
        self.end_us = end_us
        self.cause = cause
        self.detail = detail

    @property
    def us(self) -> int:
        return self.end_us - self.start_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathSegment({self.span_name}, {self.cause}, "
            f"[{self.start_us}, {self.end_us}])"
        )


class RequestPath:
    """One request's extracted critical path and its decomposition."""

    __slots__ = (
        "trace_id",
        "root_span_id",
        "operation",
        "database_id",
        "start_us",
        "elapsed_us",
        "modeled_us",
        "segments",
        "modeled",
        "decomposition",
        "retained",
    )

    def __init__(self, root, segments, modeled):
        self.trace_id = root.trace_id
        self.root_span_id = root.span_id
        self.operation = root.attributes.get("operation") or root.name
        self.database_id = root.attributes.get("database_id", "")
        self.start_us = root.start_us
        self.elapsed_us = root.duration_us
        #: critical-path slices covering [root.start_us, root.end_us)
        self.segments = segments
        #: (cause, duration_us, span_name, detail) priced-not-elapsed waits
        self.modeled = modeled
        self.modeled_us = sum(entry[1] for entry in modeled)
        decomposition: dict[str, int] = {}
        for segment in segments:
            decomposition[segment.cause] = (
                decomposition.get(segment.cause, 0) + segment.us
            )
        for cause, duration_us, _, _ in modeled:
            decomposition[cause] = decomposition.get(cause, 0) + duration_us
        self.decomposition = decomposition
        self.retained = False

    @property
    def total_us(self) -> int:
        """Elapsed critical path plus modeled (priced) waits."""
        return self.elapsed_us + self.modeled_us

    @property
    def unattributed_us(self) -> int:
        return self.decomposition.get(UNATTRIBUTED, 0)


# -- extraction ---------------------------------------------------------------


def _classify_gap(span, lo, hi, waits, segments) -> None:
    """Split the gap [lo, hi) on ``span`` across overlapping interval
    waits (greedy, in (start, end, cause) order); the residual goes to
    the span's ``self_cause`` attribute or ``unattributed``."""
    cursor = lo
    for wait in waits:
        if wait.start_us >= hi:
            break
        if wait.end_us <= cursor:
            continue
        start = max(cursor, wait.start_us)
        end = min(hi, wait.end_us)
        if end <= start:
            continue
        if start > cursor:
            segments.append(
                PathSegment(
                    span.span_id,
                    span.name,
                    cursor,
                    start,
                    span.attributes.get(SELF_CAUSE_ATTR, UNATTRIBUTED),
                )
            )
        segments.append(
            PathSegment(
                span.span_id, span.name, start, end, wait.cause, wait.detail
            )
        )
        cursor = end
        if cursor >= hi:
            return
    if cursor < hi:
        segments.append(
            PathSegment(
                span.span_id,
                span.name,
                cursor,
                hi,
                span.attributes.get(SELF_CAUSE_ATTR, UNATTRIBUTED),
            )
        )


def _merge_segments(segments) -> list:
    """Coalesce touching segments with the same span and cause."""
    merged: list[PathSegment] = []
    for segment in segments:
        last = merged[-1] if merged else None
        if (
            last is not None
            and last.end_us == segment.start_us
            and last.cause == segment.cause
            and last.span_id == segment.span_id
        ):
            last.end_us = segment.end_us
        else:
            merged.append(segment)
    return merged


def extract_critical_path(spans, waits, root) -> list:
    """The critical path of ``root``'s subtree as merged
    :class:`PathSegment` slices covering [root.start_us, root.end_us).

    Backward walk: starting at the root's end, repeatedly step to the
    last-finishing child whose (parent-clipped) interval still precedes
    the cursor; the stretches no child covers are gaps, classified by
    :func:`_classify_gap`. Zero-duration and out-of-window children
    vanish under clipping, so retry loops (many dead siblings), hedged
    parallel children (first-wins) and spans leaking past their parent
    all come out right. Deterministic for identical input.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[str, list] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.end_us, s.start_us, s.span_id))

    interval_waits = sorted(
        (w for w in waits if w.kind == "interval" and w.trace_id == root.trace_id),
        key=lambda w: (w.start_us, w.end_us, w.cause),
    )

    gaps: list[tuple] = []  # (owning span, lo, hi)

    def walk(span, lo, hi) -> None:
        cursor = hi
        for child in reversed(children.get(span.span_id, ())):
            child_end = min(child.end_us, cursor)
            child_start = max(child.start_us, lo)
            if child_end <= child_start:
                continue
            if child_end < cursor:
                gaps.append((span, child_end, cursor))
            walk(child, child_start, child_end)
            cursor = child_start
            if cursor <= lo:
                return
        if cursor > lo:
            gaps.append((span, lo, cursor))

    if root.end_us is not None and root.end_us > root.start_us:
        walk(root, root.start_us, root.end_us)
    gaps.sort(key=lambda gap: (gap[1], gap[2]))

    segments: list[PathSegment] = []
    for span, lo, hi in gaps:
        _classify_gap(span, lo, hi, interval_waits, segments)
    return _merge_segments(segments)


def request_paths(spans, waits) -> list:
    """Every request in the trace set as a :class:`RequestPath`.

    A *request* is a root span — parentless, or orphaned (its parent
    never finished, e.g. an abandoned op whose RPCs completed). Modeled
    waits attach to the request whose subtree recorded them; one on an
    unfinished span falls back to the trace's earliest root.
    """
    by_id = {span.span_id: span for span in spans}
    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    root_cache: dict[str, Optional[str]] = {}

    def root_of(span_id: str) -> Optional[str]:
        chain = []
        cursor = span_id
        while cursor not in root_cache:
            span = by_id.get(cursor)
            if span is None:
                root_cache[cursor] = None
                break
            chain.append(cursor)
            if span.parent_id is None or span.parent_id not in by_id:
                root_cache[cursor] = cursor
                break
            cursor = span.parent_id
        root = root_cache[cursor]
        for link in chain:
            root_cache[link] = root
        return root

    modeled_by_root: dict[str, list] = {}
    fallback_root: dict[str, str] = {}
    for trace_id, trace_spans in by_trace.items():
        roots = [
            s
            for s in trace_spans
            if s.parent_id is None or s.parent_id not in by_id
        ]
        roots.sort(key=lambda s: (s.start_us, s.span_id))
        if roots:
            fallback_root[trace_id] = roots[0].span_id
    for wait in waits:
        if wait.kind != "modeled":
            continue
        owner = root_of(wait.span_id)
        if owner is None:
            owner = fallback_root.get(wait.trace_id)
        if owner is None:
            continue  # trace has no finished spans at all
        span = by_id.get(wait.span_id)
        modeled_by_root.setdefault(owner, []).append(
            (
                wait.cause,
                wait.duration_us,
                span.name if span is not None else "(open span)",
                wait.detail,
            )
        )

    paths: list[RequestPath] = []
    for trace_id in by_trace:
        trace_spans = by_trace[trace_id]
        roots = [
            s
            for s in trace_spans
            if s.parent_id is None or s.parent_id not in by_id
        ]
        roots.sort(key=lambda s: (s.start_us, s.span_id))
        for root in roots:
            segments = extract_critical_path(trace_spans, waits, root)
            modeled = modeled_by_root.get(root.span_id, [])
            paths.append(RequestPath(root, segments, modeled))
    paths.sort(key=lambda p: (p.start_us, p.trace_id, p.root_span_id))
    return paths


# -- aggregation --------------------------------------------------------------


def _bucket_floor_us(total_us: int) -> int:
    """The log2 histogram bucket a total falls in (floor value)."""
    if total_us <= 0:
        return 0
    return 1 << (total_us.bit_length() - 1)


def _cause_means(bucket) -> dict[str, float]:
    """Mean per-cause microseconds over a list of paths."""
    means: dict[str, float] = {}
    if not bucket:
        return means
    for path in bucket:
        for cause, us in path.decomposition.items():
            means[cause] = means.get(cause, 0.0) + us
    return {cause: total / len(bucket) for cause, total in means.items()}


def _operation_block(paths, retained: set) -> dict:
    """The per-operation summary: decomposition, blame table, exemplars."""
    totals = sorted(p.total_us for p in paths)
    p50 = percentile_or(totals, 50)
    p99 = percentile_or(totals, 99)
    p50_bucket = [p for p in paths if p.total_us <= p50] or list(paths)
    tail_bucket = [p for p in paths if p.total_us >= p99] or list(paths)
    p50_means = _cause_means(p50_bucket)
    tail_means = _cause_means(tail_bucket)

    grand_total = sum(totals)
    by_cause: dict[str, int] = {}
    for path in paths:
        for cause, us in path.decomposition.items():
            by_cause[cause] = by_cause.get(cause, 0) + us
    decomposition = {
        cause: {
            "us": us,
            "share": round(us / grand_total, 6) if grand_total else 0.0,
        }
        for cause, us in sorted(by_cause.items())
    }

    blame = []
    for cause in sorted(set(p50_means) | set(tail_means)):
        p50_mean = p50_means.get(cause, 0.0)
        tail_mean = tail_means.get(cause, 0.0)
        blame.append(
            {
                "cause": cause,
                "p50_mean_us": round(p50_mean, 1),
                "tail_mean_us": round(tail_mean, 1),
                "growth_us": round(tail_mean - p50_mean, 1),
            }
        )
    blame.sort(key=lambda row: (-row["growth_us"], row["cause"]))
    del blame[BLAME_LIMIT:]
    top_tail_causes = [
        row["cause"] for row in blame if row["growth_us"] > 0
    ][:5]

    exemplar_pick: dict[int, tuple] = {}
    counts: dict[int, int] = {}
    for path in paths:
        bucket = _bucket_floor_us(path.total_us)
        counts[bucket] = counts.get(bucket, 0) + 1
        best = exemplar_pick.get(bucket)
        # prefer retained traces, then slower, then smaller trace id
        key = (path.trace_id in retained, path.total_us, path.trace_id)
        if (
            best is None
            or key[:2] > best[:2]
            or (key[:2] == best[:2] and key[2] < best[2])
        ):
            exemplar_pick[bucket] = key
    exemplars = [
        {
            "bucket_floor_us": bucket,
            "count": counts[bucket],
            "trace_id": exemplar_pick[bucket][2],
            "total_us": exemplar_pick[bucket][1],
            "retained": exemplar_pick[bucket][0],
        }
        for bucket in sorted(exemplar_pick)
    ]

    unattributed = sum(p.unattributed_us for p in paths)
    return {
        "count": len(paths),
        "total_us": grand_total,
        "p50_us": p50,
        "p99_us": p99,
        "decomposition": decomposition,
        "blame": blame,
        "top_tail_causes": top_tail_causes,
        "exemplars": exemplars,
        "unattributed_us": unattributed,
        "coverage": (
            round(1.0 - unattributed / grand_total, 6) if grand_total else 1.0
        ),
    }


def folded_paths(paths) -> list[str]:
    """Critical paths folded into ``operation;span;cause N`` stack lines
    (elapsed segments and modeled waits both), path-sorted."""
    folded: dict[str, int] = {}
    for path in paths:
        for segment in path.segments:
            key = f"{path.operation};{segment.span_name};{segment.cause}"
            folded[key] = folded.get(key, 0) + segment.us
        for cause, duration_us, span_name, _ in path.modeled:
            key = f"{path.operation};{span_name};{cause}"
            folded[key] = folded.get(key, 0) + duration_us
    return [f"{key} {folded[key]}" for key in sorted(folded)]


def analyze(tracer, sampler=None) -> dict:
    """One run's full critical-path summary, JSON-ready and
    deterministic (same spans + waits -> byte-identical dict).

    With a :class:`repro.obs.sampling.TailSampler`, every request is
    offered to it first and histogram exemplars prefer retained traces,
    so the traces the report links to are the ones whose full span
    trees were kept.
    """
    paths = request_paths(list(tracer.finished), list(tracer.waits))

    retained: set = set()
    if sampler is not None:
        for path in paths:
            sampler.offer(
                path.operation,
                path.database_id,
                path.trace_id,
                path.total_us,
                start_us=path.start_us,
            )
        retained = sampler.retained()
        for path in paths:
            path.retained = path.trace_id in retained

    by_operation: dict[str, list] = {}
    for path in paths:
        by_operation.setdefault(path.operation, []).append(path)

    total_us = sum(p.total_us for p in paths)
    unattributed_us = sum(p.unattributed_us for p in paths)
    coverage = 1.0 - unattributed_us / total_us if total_us else 1.0

    slowest = sorted(paths, key=lambda p: (-p.total_us, p.trace_id))
    slowest_block = [
        {
            "trace_id": path.trace_id,
            "operation": path.operation,
            "database_id": path.database_id,
            "total_us": path.total_us,
            "elapsed_us": path.elapsed_us,
            "modeled_us": path.modeled_us,
            "retained": path.retained,
            "segments": [
                {
                    "span": segment.span_name,
                    "cause": segment.cause,
                    "us": segment.us,
                    **({"detail": segment.detail} if segment.detail else {}),
                }
                for segment in path.segments
            ]
            + [
                {
                    "span": span_name,
                    "cause": cause,
                    "us": duration_us,
                    "modeled": True,
                    **({"detail": detail} if detail else {}),
                }
                for cause, duration_us, span_name, detail in path.modeled
            ],
        }
        for path in slowest[:SLOWEST_LIMIT]
    ]

    summary = {
        "schema": "repro.critpath/1",
        "requests": len(paths),
        "spans": len(tracer.finished),
        "wait_records": len(tracer.waits),
        "dropped": {"spans": tracer.dropped, "waits": tracer.waits_dropped},
        "coverage": {
            "total_us": total_us,
            "attributed_us": total_us - unattributed_us,
            "unattributed_us": unattributed_us,
            "ratio": round(coverage, 6),
            "target": COVERAGE_TARGET,
            "ok": coverage >= COVERAGE_TARGET,
        },
        "operations": {
            operation: _operation_block(by_operation[operation], retained)
            for operation in sorted(by_operation)
        },
        "folded": folded_paths(paths),
        "slowest": slowest_block,
    }
    if sampler is not None:
        summary["sampler"] = {
            "offered": sampler.offered,
            "retained": sampler.retained_count(),
        }
    return summary


# -- rendering ----------------------------------------------------------------


def _fmt_us(us) -> str:
    if us >= 1_000_000:
        return f"{us / 1_000_000:.2f}s"
    if us >= 1_000:
        return f"{us / 1_000:.1f}ms"
    return f"{int(us)}us"


def render_text(summary: dict) -> str:
    """The human report: coverage, per-op decomposition, blame tables."""
    lines = []
    coverage = summary["coverage"]
    lines.append(
        f"critical-path attribution — {summary['requests']} requests, "
        f"{summary['spans']} spans, {summary['wait_records']} wait records"
    )
    lines.append(
        f"coverage {coverage['ratio'] * 100:.2f}% attributed "
        f"({_fmt_us(coverage['unattributed_us'])} unattributed of "
        f"{_fmt_us(coverage['total_us'])}; target "
        f"{coverage['target'] * 100:.0f}%) "
        f"{'OK' if coverage['ok'] else 'FAIL'}"
    )
    for operation, block in summary["operations"].items():
        lines.append("")
        lines.append(
            f"{operation}: n={block['count']} "
            f"p50={_fmt_us(block['p50_us'])} p99={_fmt_us(block['p99_us'])} "
            f"coverage={block['coverage'] * 100:.2f}%"
        )
        lines.append("  where the time goes:")
        ranked = sorted(
            block["decomposition"].items(),
            key=lambda item: (-item[1]["us"], item[0]),
        )
        for cause, entry in ranked:
            lines.append(
                f"    {cause:<20} {_fmt_us(entry['us']):>10} "
                f"({entry['share'] * 100:5.1f}%)"
            )
        lines.append("  why the tail is slow (p99 bucket vs p50 bucket, mean/req):")
        for row in block["blame"]:
            if row["growth_us"] <= 0:
                continue
            lines.append(
                f"    {row['cause']:<20} +{_fmt_us(row['growth_us']):>9}  "
                f"(p50 {_fmt_us(row['p50_mean_us'])} -> "
                f"tail {_fmt_us(row['tail_mean_us'])})"
            )
        tail = block["exemplars"][-1] if block["exemplars"] else None
        if tail is not None:
            lines.append(
                f"  tail exemplar: trace {tail['trace_id']} "
                f"({_fmt_us(tail['total_us'])}"
                f"{', full tree retained' if tail['retained'] else ''})"
            )
    for entry in summary["slowest"][:1]:
        lines.append("")
        lines.append(
            f"slowest request anatomy — {entry['operation']} "
            f"trace {entry['trace_id']} ({_fmt_us(entry['total_us'])}):"
        )
        for segment in entry["segments"]:
            tag = " (modeled)" if segment.get("modeled") else ""
            detail = f" [{segment['detail']}]" if segment.get("detail") else ""
            lines.append(
                f"    {_fmt_us(segment['us']):>10}  {segment['cause']:<20} "
                f"in {segment['span']}{tag}{detail}"
            )
    return "\n".join(lines)


def critpath_flamegraph_svg(
    summary: dict, title: str = "critical-path flamegraph"
) -> str:
    """The summary's folded critical paths as a flamegraph SVG —
    frames are operation → span → wait cause, widths are microseconds
    on the critical path (modeled waits included)."""
    from repro.obs.perf import flamegraph_svg

    return flamegraph_svg(summary["folded"], title=title)


# -- CLI ----------------------------------------------------------------------

#: scenario -> (default mix, default seed) for the CLI and the blame tests
SCENARIO_DEFAULTS = {
    "overload-storm": ("none", 7),
    "failover": ("region-outage", 5),
}


def main(argv=None) -> int:
    """``python -m repro.obs.critpath`` — run traced chaos scenarios and
    emit the text report plus CRITPATH json/svg artifacts."""
    import argparse
    import os

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.critpath",
        description="critical-path latency attribution over chaos scenarios",
    )
    parser.add_argument(
        "--scenario",
        default=",".join(SCENARIO_DEFAULTS),
        help="comma-separated chaos scenarios (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mix", default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--out", default="benchmarks/out")
    parser.add_argument("--no-svg", action="store_true")
    args = parser.parse_args(argv)

    from repro.faults.chaos import run_chaos

    os.makedirs(args.out, exist_ok=True)
    status = 0
    for scenario in args.scenario.split(","):
        scenario = scenario.strip()
        default_mix, default_seed = SCENARIO_DEFAULTS.get(
            scenario, ("none", 0)
        )
        seed = args.seed if args.seed is not None else default_seed
        mix = args.mix if args.mix is not None else default_mix
        run = run_chaos(scenario, seed, mix, ops=args.ops, trace=True)
        summary = run.extra.get("critpath")
        if summary is None:
            print(f"{scenario}: scenario does not support tracing")
            status = 1
            continue
        print(f"== {scenario} (seed {seed}, mix {mix}) ==")
        print(render_text(summary))
        print()
        json_path = os.path.join(args.out, f"CRITPATH_{scenario}.json")
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {json_path}")
        if not args.no_svg:
            svg_path = os.path.join(args.out, f"CRITPATH_{scenario}.svg")
            with open(svg_path, "w") as fh:
                fh.write(
                    critpath_flamegraph_svg(
                        summary,
                        title=f"critical path: {scenario} (seed {seed})",
                    )
                )
            print(f"wrote {svg_path}")
        if not summary["coverage"]["ok"]:
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
