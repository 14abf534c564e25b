"""Latency percentile recorders.

Percentile arithmetic delegates to :mod:`repro.obs.stats` so the
benchmarks compare numbers computed identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.stats import percentile as _percentile


class LatencyRecorder:
    """Accumulates latency samples and reports percentiles."""

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list[int] = []
        self._sorted = True

    def record(self, latency_us: int) -> None:
        """Add one latency sample (microseconds)."""
        if latency_us < 0:
            raise ValueError("latency cannot be negative")
        self._samples.append(latency_us)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> int:
        """The p-th percentile (0 < p <= 100), nearest-rank."""
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return _percentile(self._samples, p, presorted=True)

    @property
    def p50(self) -> int:
        """The median sample."""
        return self.percentile(50)

    @property
    def p99(self) -> int:
        """The 99th-percentile sample."""
        return self.percentile(99)

    def mean(self) -> float:
        """The arithmetic mean of the samples."""
        if not self._samples:
            raise ValueError("no samples")
        return sum(self._samples) / len(self._samples)

    def reset(self) -> None:
        """Discard every sample."""
        self._samples.clear()
        self._sorted = True


@dataclass
class WindowedPercentiles:
    """Per-time-window percentile series (for ramp-style experiments)."""

    window_us: int
    _windows: dict[int, LatencyRecorder] = field(default_factory=dict)

    def record(self, time_us: int, latency_us: int) -> None:
        """Add a sample into its time window."""
        index = time_us // self.window_us
        recorder = self._windows.get(index)
        if recorder is None:
            recorder = LatencyRecorder(f"window-{index}")
            self._windows[index] = recorder
        recorder.record(latency_us)

    def series(self, p: float) -> list[tuple[int, int]]:
        """(window_start_us, percentile) pairs in time order."""
        return [
            (index * self.window_us, recorder.percentile(p))
            for index, recorder in sorted(self._windows.items())
            if len(recorder)
        ]

    def window(self, time_us: int) -> LatencyRecorder | None:
        """The recorder of the window containing a time, or None."""
        return self._windows.get(time_us // self.window_us)
