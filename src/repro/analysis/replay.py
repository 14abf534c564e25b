"""Same-seed replay harness: determinism as an enforced property.

Every run of this reproduction is supposed to be a pure function of its
seed — that is what makes heavy-traffic simulations debuggable and what
the tracing subsystem's "byte-identical exports" claim rests on. The
harness makes the claim mechanical: run a scenario twice from identical
inputs, fingerprint every artifact it produces (Chrome-trace export,
metrics snapshot, event log), and raise
:class:`repro.errors.SanitizerViolation` on the first divergence, with
enough context to bisect it.

A *scenario* is a zero-argument callable (bake the seed in with
``functools.partial`` or a closure) returning any of:

- a dict with optional keys ``tracer``, ``metrics``, ``events``,
  ``history``, ``extra`` — the canonical form;
- a ``(tracer, metrics)`` tuple;
- a bare :class:`repro.obs.tracer.Tracer`.

``events`` may be any JSON-serializable list (e.g. rendered event-kernel
labels); ``history`` a repro.check execution history (one event-dict
list, or a list of them — one per recorder), fingerprinted in its
canonical JSONL form so "same seed => byte-identical history log" is
checked mechanically; ``extra`` any JSON-serializable value (e.g.
benchmark numbers).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import SanitizerViolation
from repro.obs.export import chrome_trace_json, history_jsonl


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReplayRun:
    """The fingerprint of one scenario execution."""

    trace_json: Optional[str]
    trace_hash: Optional[str]
    span_count: int
    metrics_json: Optional[str]
    metrics_hash: Optional[str]
    events_hash: Optional[str]
    history_json: Optional[str]
    history_hash: Optional[str]
    extra_hash: Optional[str]

    def digest(self) -> tuple:
        """The comparable identity of the run."""
        return (
            self.trace_hash,
            self.metrics_hash,
            self.events_hash,
            self.history_hash,
            self.extra_hash,
        )


@dataclass(frozen=True)
class ReplayReport:
    """The outcome of replaying a scenario N times."""

    runs: tuple[ReplayRun, ...]

    @property
    def deterministic(self) -> bool:
        """Whether every run produced identical artifacts."""
        return len({run.digest() for run in self.runs}) <= 1

    @property
    def trace_hash(self) -> Optional[str]:
        """The (agreed) trace hash, for logging alongside benchmarks."""
        return self.runs[0].trace_hash if self.runs else None


def _normalize(result: Any) -> dict:
    if isinstance(result, dict):
        return result
    if isinstance(result, tuple) and len(result) == 2:
        return {"tracer": result[0], "metrics": result[1]}
    return {"tracer": result}


def _history_jsonl(history: Any) -> str:
    """Canonical JSONL for a repro.check history (or list of them)."""
    if history and isinstance(history[0], dict):
        history = [history]
    return history_jsonl(history)


def fingerprint(result: Any) -> ReplayRun:
    """Hash every artifact of one scenario result."""
    parts = _normalize(result)
    tracer = parts.get("tracer")
    metrics = parts.get("metrics")
    events = parts.get("events")
    history = parts.get("history")
    extra = parts.get("extra")
    trace_json = chrome_trace_json(tracer) if tracer is not None else None
    metrics_json = (
        json.dumps(metrics.to_dict(), sort_keys=True, separators=(",", ":"))
        if metrics is not None
        else None
    )
    history_json = _history_jsonl(history) if history is not None else None
    return ReplayRun(
        trace_json=trace_json,
        trace_hash=_sha256(trace_json) if trace_json is not None else None,
        span_count=len(tracer.finished) if tracer is not None else 0,
        metrics_json=metrics_json,
        metrics_hash=_sha256(metrics_json) if metrics_json is not None else None,
        events_hash=(
            _sha256(json.dumps(events, sort_keys=True, default=str))
            if events is not None
            else None
        ),
        history_json=history_json,
        history_hash=(
            _sha256(history_json) if history_json is not None else None
        ),
        extra_hash=(
            _sha256(json.dumps(extra, sort_keys=True, default=str))
            if extra is not None
            else None
        ),
    )


def _first_divergence(a: Optional[str], b: Optional[str]) -> str:
    if a is None or b is None:
        return "artifact present in one run only"
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            lo, hi = max(0, i - 40), i + 40
            return (
                f"first divergence at byte {i}: "
                f"...{a[lo:hi]!r} != ...{b[lo:hi]!r}"
            )
    return f"length mismatch: {len(a)} vs {len(b)} bytes"


def run_replay(
    scenario: Callable[[], Any], runs: int = 2, check: bool = True
) -> ReplayReport:
    """Execute ``scenario`` ``runs`` times and compare artifact hashes.

    With ``check`` (the default) a mismatch raises
    :class:`SanitizerViolation` naming the diverging artifact and the
    byte offset of the first difference; with ``check=False`` the report
    is returned for the caller to inspect.
    """
    if runs < 2:
        raise ValueError("a replay needs at least 2 runs to compare")
    fingerprints = tuple(fingerprint(scenario()) for _ in range(runs))
    report = ReplayReport(fingerprints)
    if check and not report.deterministic:
        first = fingerprints[0]
        for index, other in enumerate(fingerprints[1:], start=2):
            if other.digest() == first.digest():
                continue
            for artifact, a_json, b_json, a_hash, b_hash in (
                (
                    "chrome-trace export",
                    first.trace_json,
                    other.trace_json,
                    first.trace_hash,
                    other.trace_hash,
                ),
                (
                    "metrics snapshot",
                    first.metrics_json,
                    other.metrics_json,
                    first.metrics_hash,
                    other.metrics_hash,
                ),
                ("event log", None, None, first.events_hash, other.events_hash),
                (
                    "history log",
                    first.history_json,
                    other.history_json,
                    first.history_hash,
                    other.history_hash,
                ),
                ("extra artifact", None, None, first.extra_hash, other.extra_hash),
            ):
                if a_hash != b_hash:
                    detail = (
                        _first_divergence(a_json, b_json)
                        if a_json is not None or b_json is not None
                        else f"hashes {a_hash} vs {b_hash}"
                    )
                    raise SanitizerViolation(
                        "replay-divergence",
                        f"run 1 and run {index} disagree on the {artifact}: "
                        f"{detail}",
                    )
    return report
