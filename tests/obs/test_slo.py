"""SLO engine arithmetic: windows, burn rates, multi-window alerts.

Everything here is hand-built event streams with known ratios, so each
assertion pins the exact SRE-workbook arithmetic the verdict blocks in
BENCH_*.json rely on.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import BUCKET_US, OVERLOAD_SLOS, SloEngine, SloSpec

SECOND = BUCKET_US  # 1 simulated second per bucket
WINDOW = 60 * SECOND


def _availability_engine(target=0.999, **kwargs):
    spec = SloSpec(
        name="request.availability",
        kind="availability",
        target=target,
        window_us=WINDOW,
        stream="request",
        **kwargs,
    )
    return SloEngine([spec]), spec


def _one(engine, now_us):
    (verdict,) = engine.evaluate(now_us)
    return verdict


def test_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="throughput", target=0.9)
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="availability", target=1.5)
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="availability", target=0.0)
    # fairness targets are share factors, not ratios in (0, 1]
    SloSpec(name="x", kind="fairness", target=1.5)
    # stream defaults to the spec name; short window defaults to 1/12
    spec = SloSpec(name="s", kind="availability", target=0.9, window_us=WINDOW)
    assert spec.stream == "s"
    assert spec.short_window_us == WINDOW // 12


def test_duplicate_spec_names_rejected():
    spec = SloSpec(name="dup", kind="availability", target=0.9)
    with pytest.raises(ValueError):
        SloEngine([spec, spec])


def test_exact_burn_rate_arithmetic():
    """999 good + 1 bad at a 99.9% target burns the budget at exactly 1x."""
    engine, _ = _availability_engine(target=0.999)
    for i in range(999):
        engine.record("request", (i % 50) * SECOND, True)
    engine.record("request", 10 * SECOND, False)
    verdict = _one(engine, WINDOW - 1)
    assert verdict.good == 999 and verdict.bad == 1
    assert verdict.observed == pytest.approx(0.999)
    assert verdict.error_rate == pytest.approx(0.001)
    assert verdict.burn_rate == pytest.approx(1.0)
    assert verdict.ok  # observed >= target, boundary inclusive


def test_window_excludes_old_buckets():
    engine, _ = _availability_engine()
    engine.record("request", 0, False)  # bucket 0
    engine.record("request", 61 * SECOND, True)  # bucket 61
    # at t=61s the 60s window spans buckets [2..61]: the failure aged out
    verdict = _one(engine, 61 * SECOND + SECOND - 1)
    assert verdict.good == 1 and verdict.bad == 0
    assert verdict.ok


def test_empty_window_is_vacuously_ok():
    engine, _ = _availability_engine()
    verdict = _one(engine, WINDOW)
    assert verdict.ok
    assert verdict.observed == 1.0
    assert verdict.burn_rate == 0.0


def test_multi_window_alert_requires_both_windows_burning():
    """An old spike burns the long window but not the short one."""
    engine, spec = _availability_engine(target=0.999)
    now = WINDOW - 1  # short window = last 5 sim-seconds
    # heavy failures early in the window: long burn >> 14.4
    for i in range(100):
        engine.record("request", 1 * SECOND, False)
        engine.record("request", 1 * SECOND, True)
    # recent traffic is clean
    for i in range(100):
        engine.record("request", 58 * SECOND, True)
    verdict = _one(engine, now)
    assert verdict.burn_rate >= spec.burn_alert
    assert verdict.burn_rate_short == 0.0
    assert not verdict.alerting  # spike is old news
    # ... until failures reach the short window too
    for i in range(10):
        engine.record("request", 59 * SECOND, False)
    verdict = _one(engine, now)
    assert verdict.burn_rate_short >= spec.burn_alert
    assert verdict.alerting


def test_perfect_target_burns_infinitely_on_any_failure():
    engine, _ = _availability_engine(target=1.0)
    engine.record("request", 0, True)
    assert _one(engine, WINDOW - 1).burn_rate == 0.0
    engine.record("request", 0, False)
    verdict = _one(engine, WINDOW - 1)
    assert verdict.burn_rate == float("inf")
    assert not verdict.ok


def test_latency_samples_judged_against_threshold():
    spec = SloSpec(
        name="request.p99_latency",
        kind="latency",
        target=0.99,
        threshold_us=500_000,
        window_us=WINDOW,
        stream="request.latency",
    )
    engine = SloEngine([spec])
    for i in range(99):
        engine.record_latency("request.latency", i * SECOND // 2, 400_000)
    engine.record_latency("request.latency", 5 * SECOND, 500_001)
    verdict = _one(engine, WINDOW - 1)
    assert verdict.good == 99 and verdict.bad == 1
    assert verdict.ok  # exactly at the 99% target
    engine.record_latency("request.latency", 6 * SECOND, 900_000)
    assert not _one(engine, WINDOW - 1).ok


def test_latency_sample_without_consumer_counts_as_good():
    engine, _ = _availability_engine()
    engine.record_latency("unclaimed.stream", 0, 10**9)
    assert engine._streams["unclaimed.stream"][0].good == 1


def test_fairness_share_factor():
    spec = SloSpec(
        name="tenant.fairness",
        kind="fairness",
        target=1.5,
        window_us=WINDOW,
        stream="tenant.cpu",
    )
    engine = SloEngine([spec])
    # one tenant alone is trivially fair
    engine.record_share("tenant.cpu", 0, "solo", 1000)
    assert _one(engine, WINDOW - 1).ok
    # 900/100 split: hottest share is 1.8x the fair share of 500
    engine = SloEngine([spec])
    engine.record_share("tenant.cpu", 0, "hog", 900)
    engine.record_share("tenant.cpu", 0, "bystander", 100)
    verdict = _one(engine, WINDOW - 1)
    assert verdict.observed == pytest.approx(1.8)
    assert not verdict.ok
    assert verdict.alerting
    # an even split is 1.0x
    engine = SloEngine([spec])
    engine.record_share("tenant.cpu", 0, "a", 500)
    engine.record_share("tenant.cpu", 0, "b", 500)
    assert _one(engine, WINDOW - 1).observed == pytest.approx(1.0)


def test_convergence_tolerates_no_failures():
    spec = SloSpec(
        name="chaos.convergence",
        kind="convergence",
        target=1.0,
        window_us=WINDOW,
        stream="converged",
    )
    engine = SloEngine([spec])
    for i in range(100):
        engine.record("converged", i * SECOND // 2, True)
    assert _one(engine, WINDOW - 1).ok
    engine.record("converged", 10 * SECOND, False)
    verdict = _one(engine, WINDOW - 1)
    assert not verdict.ok  # 100/101 good would pass availability, not this


def test_verdict_block_is_name_sorted_and_replay_stable():
    def build():
        engine = SloEngine(OVERLOAD_SLOS(window_us=WINDOW))
        for i in range(50):
            engine.record("overload.goodput", i * SECOND, i % 7 != 0)
            engine.record("overload.recovery", i * SECOND, True)
        engine.record_share("overload.shed", 0, "a", 700)
        engine.record_share("overload.shed", 0, "b", 300)
        return engine.verdict_block(WINDOW - 1)

    first, second = build(), build()
    assert first == second
    assert list(first) == sorted(first)
    for verdict in first.values():
        assert set(verdict) == {
            "name", "kind", "target", "ok", "observed", "error_rate",
            "burn_rate", "burn_rate_short", "alerting", "window_us",
            "good", "bad",
        }


def test_evaluate_surfaces_slo_metrics():
    registry = MetricsRegistry()
    spec = SloSpec(
        name="request.availability",
        kind="availability",
        target=0.5,
        window_us=WINDOW,
        stream="request",
        burn_alert=1.0,
        short_window_us=WINDOW,
    )
    engine = SloEngine([spec], metrics=registry)
    engine.record("request", 0, False)
    engine.evaluate(WINDOW - 1)
    by_name = {
        (m.name, m.labels): m for m in registry.collect()
    }
    label = (("slo", "request.availability"),)
    assert by_name[("slo.ok", label)].value == 0.0
    assert by_name[("slo.error_rate", label)].value == 1.0
    assert by_name[("slo.alerts", label)].value == 1
