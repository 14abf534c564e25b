import pytest

from repro.sim.events import EventKernel
from repro.service.autoscaler import Autoscaler, AutoscalerConfig
from repro.service.pool import TaskPool
from repro.service.rpc import Rpc, RpcKind
from repro.service.scheduler import FairShareScheduler


def make_rpc(latencies, db="db", cost=1000, storage=0):
    return Rpc(
        db,
        RpcKind.GET,
        cost,
        0,
        storage_latency_us=storage,
        on_complete=lambda rpc, latency: latencies.append(latency),
    )


class TestTaskPool:
    def test_single_task_serializes_work(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        latencies = []
        pool.submit(make_rpc(latencies, cost=100))
        pool.submit(make_rpc(latencies, cost=100))
        kernel.drain()
        assert latencies == [100, 200]  # second waits for the first

    def test_parallel_tasks(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=2)
        latencies = []
        pool.submit(make_rpc(latencies, cost=100))
        pool.submit(make_rpc(latencies, cost=100))
        kernel.drain()
        assert latencies == [100, 100]

    def test_storage_latency_added_after_service(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        latencies = []
        pool.submit(make_rpc(latencies, cost=100, storage=500))
        kernel.drain()
        assert latencies == [600]

    def test_add_tasks_drains_queue_faster(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        latencies = []
        for _ in range(4):
            pool.submit(make_rpc(latencies, cost=100))
        pool.add_tasks(3)
        kernel.drain()
        assert latencies == [100, 100, 100, 100]

    def test_remove_tasks_keeps_at_least_one(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=3)
        removed = pool.remove_tasks(10)
        assert removed == 2
        assert pool.size == 1

    def test_utilization_window(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        latencies = []
        pool.submit(make_rpc(latencies, cost=500))
        kernel.run_until(1000)
        assert pool.utilization() == pytest.approx(0.5)
        kernel.run_until(2000)
        assert pool.utilization() == pytest.approx(0.0)

    def test_queue_depth(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        for _ in range(3):
            pool.submit(make_rpc([], cost=1000))
        assert pool.queue_depth() == 2  # one in service, two queued

    def test_needs_at_least_one_task(self):
        with pytest.raises(ValueError):
            TaskPool("p", EventKernel(), initial_tasks=0)

    def test_reject_callback_that_submits_cannot_double_book_a_task(self):
        """An expired RPC's reject callback submits a retry, re-entering
        dispatch, which takes the only idle task for the next queued RPC;
        the outer dispatch loop must then find no task left."""
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        latencies = []
        pool.submit(make_rpc(latencies, cost=100))
        expired = make_rpc(latencies, cost=100)
        expired.deadline_us = 50
        expired.on_reject = lambda rpc, reason: pool.submit(
            make_rpc(latencies, cost=100)
        )
        pool.submit(expired)
        pool.submit(make_rpc(latencies, cost=100))
        kernel.drain()
        assert latencies == [100, 200, 300]

    def test_stale_completion_keeps_redispatched_rpc_crashable(self):
        """At t=100 A's completion re-dispatches C and D onto both tasks
        before B's completion runs; B's (stale) completion must not erase
        D's in-flight pair, or a crash at t=150 cannot requeue D."""
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=2)
        finished = {}
        for name in "ABCD":
            pool.submit(
                Rpc(
                    "db",
                    RpcKind.GET,
                    100,
                    0,
                    on_complete=lambda rpc, latency, name=name: finished.update(
                        {name: latency}
                    ),
                )
            )
        kernel.run_until(150)
        assert finished == {"A": 100, "B": 100}
        assert pool.crash_tasks(2) == 2
        kernel.drain()
        # both in-flight RPCs were lost at 150 and re-served from scratch
        assert finished == {"A": 100, "B": 100, "C": 250, "D": 250}


class TestAutoscaler:
    def _saturate(self, pool, kernel, rate_per_sec, cost, duration_s):
        interval = 1_000_000 // rate_per_sec

        def tick():
            pool.submit(Rpc("db", RpcKind.GET, cost, kernel.now_us))
            if kernel.now_us < duration_s * 1_000_000:
                kernel.after(interval, tick)

        kernel.at(0, tick)
        kernel.run_until(duration_s * 1_000_000)

    def test_scales_up_under_sustained_load(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        scaler = Autoscaler(
            pool, kernel, AutoscalerConfig(evaluation_interval_us=1_000_000)
        )
        self._saturate(pool, kernel, rate_per_sec=100, cost=20_000, duration_s=20)
        assert pool.size > 1
        assert scaler.scale_ups >= 1

    def test_delay_before_scaling(self):
        """Scaling requires consecutive hot evaluations — a short spike
        does not trigger it (paper: short-lived spikes do not merit
        auto-scaling)."""
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        Autoscaler(
            pool,
            kernel,
            AutoscalerConfig(evaluation_interval_us=1_000_000, scale_up_after_evals=3),
        )
        self._saturate(pool, kernel, rate_per_sec=100, cost=20_000, duration_s=2)
        kernel.run_until(2_500_000)
        assert pool.size == 1  # only 2 hot evals so far

    def test_scales_down_when_cold(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=8)
        scaler = Autoscaler(
            pool,
            kernel,
            AutoscalerConfig(
                evaluation_interval_us=1_000_000, scale_down_after_evals=3
            ),
        )
        kernel.run_until(10_000_000)  # totally idle
        assert pool.size < 8
        assert scaler.scale_downs >= 1

    def test_disabled_autoscaler_never_resizes(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=2)
        Autoscaler(pool, kernel, enabled=False)
        self._saturate(pool, kernel, rate_per_sec=200, cost=20_000, duration_s=15)
        assert pool.size == 2

    def test_size_floor_applies_quickly(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=2)
        floor = [2]
        Autoscaler(
            pool,
            kernel,
            AutoscalerConfig(evaluation_interval_us=1_000_000),
            size_floor_fn=lambda: floor[0],
        )
        floor[0] = 12
        kernel.run_until(2_000_000)
        assert pool.size == 12

    def test_max_tasks_cap(self):
        kernel = EventKernel()
        pool = TaskPool("p", kernel, initial_tasks=1)
        Autoscaler(
            pool,
            kernel,
            AutoscalerConfig(evaluation_interval_us=1_000_000, max_tasks=3),
        )
        self._saturate(pool, kernel, rate_per_sec=500, cost=50_000, duration_s=30)
        assert pool.size <= 3
