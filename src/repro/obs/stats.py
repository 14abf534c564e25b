"""One home for percentile and summary arithmetic.

Before this module existed the repo computed percentiles four different
ways: ``service.metrics.LatencyRecorder`` used nearest-rank, the chaos
runner used ``round(p/100 * (n-1))``, the fleet synthesizer used
``int(n*p)``, and ad-hoc helpers in the workloads wrapped one or another
with their own empty-sample behavior. The benchmarks diff numbers
across runs and PRs, which only makes sense if every producer computes
them identically — so everything now delegates here.

The convention is **nearest-rank**: the p-th percentile of ``n`` sorted
samples is the sample at 1-based rank ``max(1, ceil(n * p / 100))``.
It is exact on the recorded data (no interpolation), which keeps every
derived number an integer when the inputs are integers — a property the
byte-identical replay artifacts rely on.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "percentile",
    "percentile_or",
    "percentiles",
    "summarize",
    "boxplot",
]


def percentile(samples: Sequence, p: float, *, presorted: bool = False):
    """Nearest-rank p-th percentile (0 < p <= 100) of ``samples``.

    Raises ``ValueError`` on an empty sequence or out-of-range ``p``.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} out of range (0, 100]")
    ordered = samples if presorted else sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def percentile_or(samples: Sequence, p: float, default=0):
    """``percentile`` that returns ``default`` for an empty sequence."""
    if not samples:
        return default
    return percentile(samples, p)


def percentiles(samples: Sequence, ps: Sequence[float]) -> list:
    """Several percentiles of one sequence, sorting only once."""
    ordered = sorted(samples)
    return [percentile(ordered, p, presorted=True) for p in ps]


def summarize(samples: Sequence) -> dict:
    """Count/min/mean/p50/p90/p99/max of a sample set, empty-safe.

    The shape matches what the unified BENCH schema stores per
    distribution metric; ``mean`` is the only float in the block.
    """
    if not samples:
        return {
            "count": 0,
            "min": 0,
            "mean": 0.0,
            "p50": 0,
            "p90": 0,
            "p99": 0,
            "max": 0,
        }
    ordered = sorted(samples)
    p50, p90, p99 = (
        percentile(ordered, p, presorted=True) for p in (50, 90, 99)
    )
    return {
        "count": len(ordered),
        "min": ordered[0],
        "mean": sum(ordered) / len(ordered),
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "max": ordered[-1],
    }


def boxplot(samples: Sequence) -> dict:
    """min/p25/p50/p75/p99/max — the paper's Figure 6 box shape."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    p25, p50, p75, p99 = (
        percentile(ordered, p, presorted=True) for p in (25, 50, 75, 99)
    )
    return {
        "min": ordered[0],
        "p25": p25,
        "p50": p50,
        "p75": p75,
        "p99": p99,
        "max": ordered[-1],
    }
