"""The unified benchmark schema.

Every artifact the repo's benchmarks emit — the figure benchmarks under
``benchmarks/`` and the chaos sweep (``python -m repro.faults``) —
shares one schema-versioned JSON layout::

    {
      "schema_version": 1,
      "name": "fig10a_document_size",
      "figure": "fig10a",             # paper figure this tracks, or ""
      "metrics": {
        "commit_p50_us@10kb": {"value": 22869, "unit": "us",
                               "kind": "stat", "tolerance": 0.3},
        "index_entries@10kb": {"value": 2.0, "unit": "rows", "kind": "exact"}
      },
      "slos": { ... repro.obs.slo verdict block ... },
      "raw":  { ... benchmark-specific payload ... }
    }

``kind`` says how a reader should compare the metric across runs:
``exact`` metrics are deterministic counters (commit counts, rejections,
injected faults); ``stat`` metrics carry a relative ``tolerance`` band.
``benchmarks/render_experiments.py`` renders a directory of payloads as
the EXPERIMENTS.md tables.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "load_bench_dir",
    "metric",
    "write_payload",
]

BENCH_SCHEMA_VERSION = 1

#: default relative tolerance for ``stat`` metrics (30%: sim-time
#: latencies are deterministic per seed, but the band lets a reader
#: tell intentional perf work from drift)
DEFAULT_TOLERANCE = 0.30


def metric(
    value,
    unit: str = "",
    kind: str = "stat",
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """One metric entry of the unified schema."""
    if kind not in ("exact", "stat"):
        raise ValueError(f"unknown metric kind {kind!r}")
    entry = {"value": value, "unit": unit, "kind": kind}
    if kind == "stat":
        entry["tolerance"] = tolerance
    return entry


def bench_payload(
    name: str,
    figure: str = "",
    metrics: Optional[dict] = None,
    slos: Optional[dict] = None,
    raw: Optional[dict] = None,
) -> dict:
    """Assemble one schema-versioned benchmark payload."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "figure": figure,
        "metrics": dict(metrics or {}),
        "slos": dict(slos or {}),
        "raw": dict(raw or {}),
    }


def write_payload(directory, payload: dict) -> pathlib.Path:
    """Write one payload as ``BENCH_<name>.json`` (sorted, newline-terminated)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{payload['name']}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench_dir(directory) -> dict[str, dict]:
    """Read every ``BENCH_*.json`` under ``directory`` (name -> payload).

    Files that predate the unified schema (no ``schema_version``) are
    ignored — they cannot be rendered, only regenerated.
    """
    out: dict[str, dict] = {}
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return out
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or "schema_version" not in payload:
            continue
        out[payload.get("name", path.stem[len("BENCH_"):])] = payload
    return out
