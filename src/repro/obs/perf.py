"""A deterministic sim-time profiler.

The benchmarks report *end-to-end* latency; this module answers *where
the time went*. Every instrumented call site attributes simulated
microseconds to a ``(subsystem, operation, database_id)`` triple — the
task pools account each RPC's service time at dispatch, the Spanner
commit path accounts its lock/apply work, the Real-time Cache accounts
fanout, and so on. Because the inputs are simulated durations, the
ledger (and everything derived from it: the top-N table, the collapsed
flamegraph stacks, the profile JSON) is byte-identical under same-seed
replay.

Sites consult the profiler duck-typed, the same way fault plans and
history recorders are consulted: ``if profiler: profiler.account(...)``.
:data:`NULL_PROFILER` is falsy, so un-instrumented runs pay one
truthiness check per site.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "Profiler",
    "NULL_PROFILER",
    "collapse_spans",
    "flamegraph_svg",
]

#: ledger key for work not attributable to a single tenant
SHARED = "-"


class Profiler:
    """Attributes simulated busy time to (subsystem, operation, tenant)."""

    def __init__(self, metrics=None):
        self.metrics = metrics
        #: (subsystem, operation, database_id) -> [sim_us, calls]
        self._ledger: dict[tuple[str, str, str], list[int]] = {}

    def __bool__(self) -> bool:
        return True

    # -- write side --------------------------------------------------------

    def account(
        self,
        subsystem: str,
        operation: str,
        sim_us: int,
        database_id: str = SHARED,
        calls: int = 1,
    ) -> None:
        """Attribute ``sim_us`` simulated microseconds of busy time."""
        if sim_us < 0:
            raise ValueError(f"negative busy time {sim_us}us")
        key = (subsystem, operation, database_id)
        entry = self._ledger.get(key)
        if entry is None:
            self._ledger[key] = [sim_us, calls]
        else:
            entry[0] += sim_us
            entry[1] += calls
        if self.metrics is not None and database_id != SHARED:
            self.metrics.counter(
                "perf_cpu_us", subsystem=subsystem, database_id=database_id
            ).inc(sim_us)

    def measure(self, subsystem: str, operation: str, clock, database_id: str = SHARED):
        """Context manager accounting the sim-clock delta across a block.

        For synchronous functional code (the Spanner commit path), where
        busy time shows up as the clock advancing under fault delays.
        """
        return _Measure(self, subsystem, operation, clock, database_id)

    # -- read side ---------------------------------------------------------

    def total_us(self) -> int:
        """Every simulated microsecond accounted so far."""
        return sum(entry[0] for entry in self._ledger.values())

    def by_subsystem(self) -> dict[str, int]:
        """Accounted sim-time per subsystem, name-sorted."""
        out: dict[str, int] = {}
        for (subsystem, _, _), (sim_us, _) in self._ledger.items():
            out[subsystem] = out.get(subsystem, 0) + sim_us
        return dict(sorted(out.items()))

    def by_tenant(self) -> dict[str, int]:
        """Accounted sim-time per database_id (CPU shares), name-sorted."""
        out: dict[str, int] = {}
        for (_, _, database_id), (sim_us, _) in self._ledger.items():
            out[database_id] = out.get(database_id, 0) + sim_us
        return dict(sorted(out.items()))

    def rows(self) -> list[dict]:
        """Every ledger entry as a dict, sorted by key — replay-stable."""
        return [
            {
                "subsystem": subsystem,
                "operation": operation,
                "database_id": database_id,
                "sim_us": entry[0],
                "calls": entry[1],
            }
            for (subsystem, operation, database_id), entry in sorted(
                self._ledger.items()
            )
        ]

    def top_self(self, n: int = 10) -> list[dict]:
        """The ``n`` hottest entries by accounted sim-time (stable order)."""
        return sorted(
            self.rows(),
            key=lambda r: (
                -r["sim_us"],
                r["subsystem"],
                r["operation"],
                r["database_id"],
            ),
        )[:n]

    def to_dict(self) -> dict:
        """Deterministic profile snapshot (no wall-clock numbers)."""
        return {
            "total_us": self.total_us(),
            "by_subsystem": self.by_subsystem(),
            "by_tenant": self.by_tenant(),
            "entries": self.rows(),
        }

    def text_table(self, n: int = 10) -> str:
        """The top-N self-time table embedded in text reports."""
        rows = self.top_self(n)
        if not rows:
            return "profile: no busy time accounted\n"
        total = self.total_us() or 1
        lines = [
            "profile: top self-time by (subsystem, operation, database)",
            f"{'SUBSYSTEM':<12} {'OPERATION':<28} {'DATABASE':<14} "
            f"{'SIM_US':>12} {'CALLS':>8} {'SHARE':>7}",
        ]
        for row in rows:
            lines.append(
                f"{row['subsystem']:<12} {row['operation']:<28} "
                f"{row['database_id']:<14} {row['sim_us']:>12} "
                f"{row['calls']:>8} {100.0 * row['sim_us'] / total:>6.1f}%"
            )
        return "\n".join(lines) + "\n"


class _Measure:
    __slots__ = ("profiler", "subsystem", "operation", "clock", "database_id", "_start")

    def __init__(self, profiler, subsystem, operation, clock, database_id):
        self.profiler = profiler
        self.subsystem = subsystem
        self.operation = operation
        self.clock = clock
        self.database_id = database_id
        self._start = 0

    def __enter__(self):
        self._start = self.clock.now_us
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = max(0, self.clock.now_us - self._start)
        self.profiler.account(
            self.subsystem, self.operation, elapsed, self.database_id
        )
        return False


class _NullProfiler:
    """Falsy no-op stand-in so call sites need no None checks."""

    def __bool__(self) -> bool:
        return False

    def account(self, *args, **kwargs) -> None:
        pass

    def measure(self, subsystem, operation, clock, database_id=SHARED):
        return _NULL_MEASURE


class _NullMeasure:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_MEASURE = _NullMeasure()
NULL_PROFILER = _NullProfiler()


# -- flamegraphs -----------------------------------------------------------


def collapse_spans(tracer) -> list[str]:
    """Fold finished spans into collapsed-stack lines (``a;b;c N``).

    ``N`` is *self* time: the span's duration minus the union of its
    children's intervals *clipped to the span's own window*. Clipping
    and merging (rather than summing raw child durations) keeps self
    time honest in the cases that used to zero it: children scheduled
    past the parent's end, overlapping parallel children (hedged
    requests), and zero-duration or orphaned spans. Identical paths
    aggregate; output is path-sorted, so two same-seed runs produce
    byte-identical files.
    """
    finished = list(tracer.finished)
    by_id = {span.span_id: span for span in finished}
    child_intervals: dict[str, list[tuple[int, int]]] = {}
    for span in finished:
        if span.parent_id is None or span.parent_id not in by_id:
            continue
        parent = by_id[span.parent_id]
        end_us = span.end_us if span.end_us is not None else span.start_us
        parent_end = (
            parent.end_us if parent.end_us is not None else parent.start_us
        )
        lo = max(span.start_us, parent.start_us)
        hi = min(end_us, parent_end)
        if hi > lo:
            child_intervals.setdefault(span.parent_id, []).append((lo, hi))
    child_us: dict[str, int] = {}
    for parent_id, intervals in child_intervals.items():
        intervals.sort()
        covered = 0
        merged_lo, merged_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > merged_hi:
                covered += merged_hi - merged_lo
                merged_lo, merged_hi = lo, hi
            else:
                merged_hi = max(merged_hi, hi)
        covered += merged_hi - merged_lo
        child_us[parent_id] = covered
    folded: dict[str, int] = {}
    for span in finished:
        path = [span.name]
        cursor = span
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break
            path.append(parent.name)
            cursor = parent
        stack = ";".join(reversed(path))
        self_us = max(0, span.duration_us - child_us.get(span.span_id, 0))
        folded[stack] = folded.get(stack, 0) + self_us
    return [f"{stack} {value}" for stack, value in sorted(folded.items())]


def _fold_tree(folded_lines: Iterable[str]) -> dict:
    """Parse collapsed lines into a nested {name: (self, children)} tree."""
    root: dict = {"name": "all", "self": 0, "children": {}}
    for line in folded_lines:
        path, _, value = line.rpartition(" ")
        node = root
        for frame in path.split(";"):
            node = node["children"].setdefault(
                frame, {"name": frame, "self": 0, "children": {}}
            )
        node["self"] += int(value)
    return root


def _node_total(node: dict) -> int:
    return node["self"] + sum(
        _node_total(child) for child in node["children"].values()
    )


def _frame_color(name: str) -> str:
    """A deterministic warm color per frame name (hash-of-name hue)."""
    seed = sum((i + 1) * ord(c) for i, c in enumerate(name))
    red = 205 + seed % 50
    green = 90 + (seed // 7) % 110
    blue = 40 + (seed // 11) % 40
    return f"rgb({red},{green},{blue})"


def flamegraph_svg(
    folded_lines: Iterable[str],
    width: int = 1000,
    frame_height: int = 18,
    title: str = "sim-time flamegraph",
) -> str:
    """Render collapsed stacks as a self-contained SVG flamegraph.

    Children are laid out in sorted-name order with widths proportional
    to inclusive sim-time — fully deterministic for identical input.
    """
    root = _fold_tree(folded_lines)
    total = _node_total(root)
    depth_limit = 0

    boxes: list[tuple[int, float, float, str, int]] = []

    def layout(node: dict, depth: int, x: float, scale: float) -> None:
        nonlocal depth_limit
        depth_limit = max(depth_limit, depth)
        cursor = x + node["self"] * scale
        for name in sorted(node["children"]):
            child = node["children"][name]
            child_total = _node_total(child)
            boxes.append((depth, cursor, child_total * scale, name, child_total))
            layout(child, depth + 1, cursor, scale)
            cursor += child_total * scale

    if total > 0:
        layout(root, 0, 0.0, width / total)
    height = (depth_limit + 2) * frame_height + 24
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="4" y="14">{_svg_escape(title)} '
        f"(total {total}us)</text>",
    ]
    for depth, x, box_width, name, value in boxes:
        if box_width < 0.5:
            continue
        y = height - (depth + 1) * frame_height
        label = name if box_width > 7 * len(name) else ""
        parts.append(
            f'<g><rect x="{x:.1f}" y="{y}" width="{box_width:.1f}" '
            f'height="{frame_height - 1}" fill="{_frame_color(name)}">'
            f"<title>{_svg_escape(name)}: {value}us "
            f"({100.0 * value / total:.1f}%)</title></rect>"
            + (
                f'<text x="{x + 2:.1f}" y="{y + frame_height - 5}">'
                f"{_svg_escape(label)}</text>"
                if label
                else ""
            )
            + "</g>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
