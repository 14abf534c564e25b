"""Workload generators reproduce the paper's experiment *shapes* at small
scale (the benchmarks run the full-size versions)."""

import math

import pytest

from repro.workloads import (
    FanoutConfig,
    FleetConfig,
    IsolationConfig,
    YcsbConfig,
    YcsbRunner,
    run_fanout_experiment,
    run_field_count_sweep,
    run_isolation_experiment,
    synthesize_fleet,
)
from repro.workloads.datashape import run_doc_size_sweep


class TestYcsb:
    def test_rejects_unknown_workload(self):
        with pytest.raises(ValueError):
            YcsbConfig(workload="Z")

    def test_rejects_bad_qps(self):
        with pytest.raises(ValueError):
            YcsbConfig(target_qps=0)

    def test_achieves_target_qps(self):
        result = YcsbRunner(
            YcsbConfig(workload="A", target_qps=200, duration_s=30, measure_last_s=15)
        ).run()
        assert result.achieved_qps == pytest.approx(200, rel=0.2)

    def test_workload_b_read_heavy(self):
        result = YcsbRunner(
            YcsbConfig(workload="B", target_qps=200, duration_s=30, measure_last_s=15)
        ).run()
        # the mix shows in the sample counts reflected through percentiles
        assert result.read_p50_us > 0
        assert result.update_p50_us > result.read_p50_us  # commits cost more

    def test_deterministic_with_seed(self):
        config = dict(workload="A", target_qps=100, duration_s=20, measure_last_s=10)
        a = YcsbRunner(YcsbConfig(seed=9, **config)).run()
        b = YcsbRunner(YcsbConfig(seed=9, **config)).run()
        assert (a.read_p50_us, a.update_p99_us) == (b.read_p50_us, b.update_p99_us)

    def test_different_seeds_differ(self):
        config = dict(workload="A", target_qps=100, duration_s=20, measure_last_s=10)
        a = YcsbRunner(YcsbConfig(seed=1, **config)).run()
        b = YcsbRunner(YcsbConfig(seed=2, **config)).run()
        assert (a.read_p50_us, a.read_p99_us) != (b.read_p50_us, b.read_p99_us)

    def test_kernel_run_is_pinned(self):
        # the fixed run benchmarks/profiles/record_ledger.py profiles:
        # making the simulator faster must not change what it simulates
        runner = YcsbRunner(
            YcsbConfig(
                workload="A",
                target_qps=2000,
                duration_s=25,
                measure_last_s=10,
                seed=42,
            )
        )
        result = runner.run()
        assert runner.cluster.kernel.executed == 200_505
        assert (
            result.read_p50_us,
            result.read_p99_us,
            result.update_p50_us,
            result.update_p99_us,
        ) == (9560, 21164, 28637, 49413)


class TestFanout:
    def test_latency_stable_across_exponential_listeners(self):
        results = run_fanout_experiment(
            FanoutConfig(listener_counts=(100, 1000, 10_000), writes_per_level=20)
        )
        p50s = [r.notify_p50_us for r in results]
        # the paper's shape: once auto-scaling tracks connections, a 10x
        # listener increase leaves notification latency flat
        assert p50s[2] < 3 * p50s[1]
        # and growth is strongly sub-linear overall (100x listeners)
        assert p50s[2] < 10 * p50s[0]
        # because the frontend pool grew with the listener count
        assert results[-1].frontend_tasks_at_end > results[0].frontend_tasks_at_end


class TestIsolation:
    def test_fair_scheduling_protects_bystander(self):
        config = IsolationConfig(duration_s=40)
        fair = run_isolation_experiment(True, config)
        unfair = run_isolation_experiment(False, config)
        assert unfair.bystander_p99_saturated_us > 5 * fair.bystander_p99_saturated_us
        assert fair.bystander_completed > 0

    def test_series_cover_run(self):
        result = run_isolation_experiment(True, IsolationConfig(duration_s=30))
        assert len(result.bystander_p50_series) >= 2
        assert result.bystander_p50_series[0][0] == 0


class TestDataShape:
    def test_commit_latency_grows_with_doc_size(self):
        results = run_doc_size_sweep(
            sizes_kb=(10, 500), commits_per_size=10, seed_docs=50
        )
        assert results[1].commit_p50_us > results[0].commit_p50_us

    def test_commit_latency_and_entries_grow_with_fields(self):
        results = run_field_count_sweep(
            field_counts=(1, 100), commits_per_count=10, seed_docs=50
        )
        assert results[1].commit_p50_us > results[0].commit_p50_us
        assert results[1].index_entries_per_commit == pytest.approx(
            100 * results[0].index_entries_per_commit
        )
        assert results[1].participants_per_commit > results[0].participants_per_commit

    def test_exemption_ablation_flattens_entries(self):
        indexed = run_field_count_sweep(
            field_counts=(100,), commits_per_count=5, seed_docs=20
        )
        exempted = run_field_count_sweep(
            field_counts=(100,), commits_per_count=5, seed_docs=20, exempt_fields=True
        )
        assert exempted[0].index_entries_per_commit == 0
        assert exempted[0].commit_p50_us < indexed[0].commit_p50_us


class TestFleet:
    def test_nine_orders_of_magnitude_spread(self):
        stats = synthesize_fleet(FleetConfig(databases=50_000))
        storage = stats["storage_bytes"].normalized()
        assert math.log10(storage.maximum) > 7.5
        assert math.log10(storage.minimum) < -7.5

    def test_realtime_spread_hundreds_of_thousands(self):
        stats = synthesize_fleet(FleetConfig(databases=50_000))
        realtime = stats["active_realtime_queries"].normalized()
        assert realtime.maximum > 1e5

    def test_normalized_median_is_one(self):
        stats = synthesize_fleet(FleetConfig(databases=1000))
        for metric in stats.values():
            assert metric.normalized().median == 1.0

    def test_deterministic(self):
        a = synthesize_fleet(FleetConfig(databases=1000, seed=5))
        b = synthesize_fleet(FleetConfig(databases=1000, seed=5))
        assert a["qps"].maximum == b["qps"].maximum
