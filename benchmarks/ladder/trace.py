"""In-memory span tracer installed from outside the program.

``Tracer.install()`` rebinds every callable of ``layers.BOUNDARIES`` — on
its class, or on its module and every ``repro`` module global that
aliases it — to a wrapper that records one span per call. Spans are
driven by a stack, so a span's self time is its duration minus the time
its direct children covered; single-threaded code makes the children
disjoint, so their union is their sum. Per-name call counts, self time
and raised-exception counts are accumulated as spans close; the span
records themselves (id, name, start_ns, end_ns, parent id, op id) are
kept for the first ``keep`` spans only and written once at the end.

Generator boundaries (scans) get one span per resumption and count one
call per generator. ``EventKernel.at``/``post`` additionally wrap the
callback they are given, so the scheduled work runs inside a span charged
to the layer whose module defined the callback and inherits the op id
that was current when it was scheduled.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

from benchmarks.ladder.layers import (
    BOUNDARIES,
    CALLBACK_SCHEDULERS,
    HARNESS,
    INTERNAL,
    OP_STARTERS,
    layer_of_module,
)

SPAN_COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    """Span stack, per-name aggregates and the install/uninstall of wrappers."""

    def __init__(self, keep: int = 200_000):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.errors: list[int] = []
        #: kept span records, in closing order: SPAN_COLUMNS
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.total_ns = 0
        self.spans_opened = 0
        self._frozen: tuple[list[int], list[int], list[int]] = ([], [], [])
        self._keep = keep
        #: span ids below this are kept; 0 outside run() keeps nothing
        self._limit = [0]
        self._ids = [0]  # next span id
        self._ops = [0]  # last op id handed out
        self._cur_op = [0]
        # frame = [ns covered by children, span id]; the sentinel absorbs
        # spans opened outside run()
        self._stack: list[list[int]] = [[0, -1]]
        self._callback_names: dict[str | None, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._run_idx = self._name("run", HARNESS)
        self._op_idx = self._name("op", HARNESS)

    # -- names -------------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    # -- harness-side spans ---------------------------------------------------

    def _open(self, idx: int) -> tuple[list[int], list[int], int]:
        sid = self._ids[0]
        self._ids[0] = sid + 1
        parent = self._stack[-1]
        frame = [0, sid]
        self._stack.append(frame)
        self.calls[idx] += 1
        return parent, frame, perf_counter_ns()

    def _close(self, idx: int, parent, frame, start: int) -> int:
        end = perf_counter_ns()
        self._stack.pop()
        duration = end - start
        self.self_ns[idx] += duration - frame[0]
        parent[0] += duration
        if frame[1] < self._limit[0]:
            self.spans.append(
                (frame[1], idx, start, end, parent[1], self._cur_op[0])
            )
        return duration

    @contextmanager
    def run(self):
        """The root span: everything timed happens inside it.

        Wrappers stay bound while the system is set up and verified;
        only what happens inside this context is counted: aggregates
        start from zero here and are frozen when it exits.
        """
        for series in (self.calls, self.self_ns, self.errors):
            series[:] = [0] * len(series)
        self.spans.clear()
        self._ids[0] = 0
        self._limit[0] = self._keep
        opened = self._open(self._run_idx)
        try:
            yield self
        finally:
            self.total_ns = self._close(self._run_idx, *opened)
            self._limit[0] = 0
            self.spans_opened = self._ids[0]
            self._frozen = (list(self.calls), list(self.self_ns), list(self.errors))

    def begin_op(self):
        """Open one logical operation driven by the harness loop."""
        self._ops[0] += 1
        self._cur_op[0] = self._ops[0]
        return self._open(self._op_idx)

    def end_op(self, opened) -> None:
        """Close the span :meth:`begin_op` returned."""
        self._close(self._op_idx, *opened)
        self._cur_op[0] = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, idx: int, starts_op: bool):
        stack, ids, limit = self._stack, self._ids, self._limit
        calls, selfs, errors = self.calls, self.self_ns, self.errors
        spans, ops, cur_op = self.spans, self._ops, self._cur_op
        clock = perf_counter_ns

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[idx] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        sid = ids[0]
                        ids[0] = sid + 1
                        parent = stack[-1]
                        frame = [0, sid]
                        stack.append(frame)
                        finished = False
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            finished = True
                        except BaseException:
                            errors[idx] += 1
                            raise
                        finally:
                            end = clock()
                            stack.pop()
                            duration = end - start
                            selfs[idx] += duration - frame[0]
                            parent[0] += duration
                            if sid < limit[0]:
                                spans.append(
                                    (sid, idx, start, end, parent[1], cur_op[0])
                                )
                        if finished:
                            return
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = ids[0]
            ids[0] = sid + 1
            parent = stack[-1]
            frame = [0, sid]
            stack.append(frame)
            calls[idx] += 1
            if starts_op:
                outer_op = cur_op[0]
                ops[0] += 1
                cur_op[0] = ops[0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                selfs[idx] += duration - frame[0]
                parent[0] += duration
                if sid < limit[0]:
                    spans.append((sid, idx, start, end, parent[1], cur_op[0]))
                if starts_op:
                    cur_op[0] = outer_op

        return traced

    def _wrap_callback(self, callback):
        """Run a scheduled callback inside a span of its defining layer."""
        module = getattr(callback, "__module__", None)
        idx = self._callback_names.get(module)
        if idx is None:
            layer = layer_of_module(module)
            idx = self._name(f"callback:{module}", layer)
            self._callback_names[module] = idx
        stack, ids, limit = self._stack, self._ids, self._limit
        calls, selfs, spans = self.calls, self.self_ns, self.spans
        cur_op = self._cur_op
        op = cur_op[0]
        clock = perf_counter_ns

        def run_callback():
            sid = ids[0]
            ids[0] = sid + 1
            parent = stack[-1]
            frame = [0, sid]
            stack.append(frame)
            calls[idx] += 1
            outer_op = cur_op[0]
            cur_op[0] = op
            start = clock()
            try:
                callback()
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                selfs[idx] += duration - frame[0]
                parent[0] += duration
                if sid < limit[0]:
                    spans.append((sid, idx, start, end, parent[1], op))
                cur_op[0] = outer_op

        return run_callback

    def _wrap_scheduler(self, traced):
        """``at``/``post``: also wrap the callback they are handed.

        ``post`` falls back to ``at`` under a schedule perturber; the
        callback is then wrapped there, not twice.
        """
        wrap_callback = self._wrap_callback
        delegates = traced.__name__ == "post"

        @functools.wraps(traced)
        def schedule(kernel, time_us, callback, *args, **kwargs):
            if not (delegates and kernel.perturber is not None):
                callback = wrap_callback(callback)
            return traced(kernel, time_us, callback, *args, **kwargs)

        return schedule

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        """Rebind every boundary callable to its traced wrapper.

        Must run before any system object is built: objects that captured
        a bound method earlier would keep calling the original.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, specs in BOUNDARIES.items():
            for spec in specs:
                module_name, _, qualname = spec.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(attr)
                if original is None and spec in INTERNAL:
                    continue
                if not inspect.isfunction(original):
                    raise LookupError(
                        f"benchmark boundary {spec} is not a plain function; "
                        "the ladder's public surface changed (see README)"
                    )
                idx = self._name(f"{layer}/{qualname}", layer)
                wrapper = self._wrap(original, idx, spec in OP_STARTERS)
                if spec in CALLBACK_SCHEDULERS:
                    wrapper = self._wrap_scheduler(wrapper)
                if owner_name:
                    self._rebind(owner, attr, original, wrapper)
                else:
                    for other in list(sys.modules.values()):
                        name = getattr(other, "__name__", "")
                        if name != "repro" and not name.startswith("repro."):
                            continue
                        for alias, value in list(vars(other).items()):
                            if value is original:
                                self._rebind(other, alias, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every rebinding made by :meth:`install`."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        """Whether wrappers are currently bound."""
        return bool(self._undo)

    # -- results -------------------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, int]]:
        """Per layer: exact calls, raised exceptions and self nanoseconds."""
        calls, self_ns, errors = self._frozen
        stats: dict[str, dict[str, int]] = {}
        for idx in range(len(calls)):
            entry = stats.setdefault(
                self.layers[idx], {"calls": 0, "errors": 0, "self_ns": 0}
            )
            entry["calls"] += calls[idx]
            entry["errors"] += errors[idx]
            entry["self_ns"] += self_ns[idx]
        return stats

    def name_stats(self) -> dict[str, dict[str, int]]:
        """Per boundary name (only the ones that ran)."""
        calls, self_ns, errors = self._frozen
        return {
            self.names[idx]: {
                "calls": calls[idx],
                "errors": errors[idx],
                "self_ns": self_ns[idx],
            }
            for idx in range(len(calls))
            if calls[idx]
        }

    def write_spans(self, path, workload: str) -> None:
        """Write the kept span records, once, as compact JSON."""
        payload = {
            "workload": workload,
            "columns": SPAN_COLUMNS,
            "names": self.names,
            "layers": self.layers,
            "spans_opened": self.spans_opened,
            "spans_kept": len(self.spans),
            "total_ns": self.total_ns,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def self_times(spans) -> dict[int, int]:
    """Self time per span id, recomputed from span records alone.

    The reference for the on-line accounting: duration minus the summed
    durations of direct children (children of one parent never overlap).
    """
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in own:
            own[parent] -= span[3] - span[2]
    return own
