"""Notification fan-out (Figure 9).

"We set up a workload that writes to a single document once every second,
while an increasing number of Firestore clients open a real-time query
that includes that document in its result set. ... We report the
notification latency, measured as the delay from when the Firestore
Backend receives an acknowledgement from Spanner denoting a write is
committed until the corresponding notification is sent to all clients by
the Frontend." (paper section V-B1)

The expected shape: notification latency stays roughly flat while the
listener count grows exponentially, because the Frontend pool auto-scales
with the number of Listen connections, independently of everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.clock import MICROS_PER_SECOND
from repro.service.cluster import ClusterConfig, ServingCluster
from repro.service.metrics import LatencyRecorder


@dataclass
class FanoutConfig:
    """Parameters of the Figure 9 broadcast experiment."""
    listener_counts: tuple[int, ...] = (1, 10, 100, 1_000, 10_000)
    writes_per_level: int = 60  # one write/second for a minute per level
    seed: int = 7
    cluster: Optional[ClusterConfig] = None
    #: optional repro.obs hooks (perf.Profiler / slo.SloEngine) shared by
    #: every per-level cluster
    profiler: Optional[object] = None
    slo: Optional[object] = None


@dataclass
class FanoutResult:
    """One listener-count level of Figure 9."""
    listeners: int
    notify_p50_us: int
    notify_p99_us: int
    frontend_tasks_at_end: int


def run_fanout_experiment(config: FanoutConfig | None = None) -> list[FanoutResult]:
    """One fresh cluster per listener level, writes at 1/second."""
    config = config if config is not None else FanoutConfig()
    results = []
    for listeners in config.listener_counts:
        cluster_config = (
            config.cluster if config.cluster is not None else ClusterConfig(seed=config.seed)
        )
        cluster = ServingCluster(
            config=cluster_config, profiler=config.profiler, slo=config.slo
        )
        cluster.set_active_connections(listeners)
        kernel = cluster.kernel
        recorder = LatencyRecorder(f"notify-{listeners}")
        warmup = [True]
        writes_done = [0]

        warmup_writes = max(2, config.writes_per_level // 3)

        def write_tick(
            cluster=cluster, recorder=recorder, listeners=listeners, writes_done=writes_done
        ) -> None:
            if writes_done[0] >= config.writes_per_level:
                return
            writes_done[0] += 1
            # skip the warm-up writes issued before auto-scaling reacts
            measuring = writes_done[0] > warmup_writes
            cluster.submit_notification_fanout(
                "scores",
                listeners,
                recorder.record if measuring else (lambda latency: None),
            )
            cluster.kernel.after(MICROS_PER_SECOND, lambda: write_tick())

        kernel.at(0, write_tick)
        kernel.run_until((config.writes_per_level + 30) * MICROS_PER_SECOND)
        results.append(
            FanoutResult(
                listeners=listeners,
                notify_p50_us=recorder.percentile(50),
                notify_p99_us=recorder.percentile(99),
                frontend_tasks_at_end=cluster.frontend_pool.size,
            )
        )
    return results
