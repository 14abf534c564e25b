"""Critical-path attribution: adversarial trees, tail sampling, acceptance.

The extraction invariant under attack throughout: the merged segments of
a request tile ``[root.start_us, root.end_us)`` exactly — no overlap, no
holes — whatever the span tree's shape (retry loops, hedged parallel
children, spans leaking past RPC boundaries, zero-duration probes,
orphaned roots). The acceptance tests then run the two traced chaos
scenarios end to end and pin the paper-shaped outcome: >= 99% coverage
and a blame table that names the right causes by name.
"""

import json

import pytest

from repro.obs.critpath import (
    COVERAGE_TARGET,
    UNATTRIBUTED,
    analyze,
    extract_critical_path,
    folded_paths,
    main,
    render_text,
    request_paths,
)
from repro.obs.sampling import TailSampler
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.rand import SimRandom


def _tracer(seed: int = 1) -> tuple[SimClock, Tracer]:
    clock = SimClock()
    return clock, Tracer(clock, SimRandom(seed).fork("tracer"))


def _assert_tiles(segments, lo: int, hi: int) -> None:
    """Segments must cover [lo, hi) exactly, in order, gap-free."""
    cursor = lo
    for segment in segments:
        assert segment.start_us == cursor, segments
        assert segment.end_us > segment.start_us, segments
        cursor = segment.end_us
    assert cursor == hi, segments


def _by_cause(segments) -> dict:
    out: dict = {}
    for segment in segments:
        out[segment.cause] = out.get(segment.cause, 0) + segment.us
    return out


# -- extraction: adversarial trees --------------------------------------------


def test_gap_classified_by_interval_wait_with_residual():
    clock, tracer = _tracer()
    root = tracer.start_span("chaos.op")
    child = tracer.start_span("backend.get", parent=root.context)
    clock.advance(40)
    child.end()
    root.wait("queue", start_us=40, end_us=90)
    clock.advance(60)
    root.end()  # [0, 100)
    segments = extract_critical_path(
        tracer.finished, tracer.waits, root
    )
    _assert_tiles(segments, 0, 100)
    assert _by_cause(segments) == {UNATTRIBUTED: 50, "queue": 50}
    # the wait interval [40, 90) is charged to queue; [90, 100) residual
    queue = [s for s in segments if s.cause == "queue"]
    assert [(s.start_us, s.end_us) for s in queue] == [(40, 90)]


def test_retry_loop_gaps_between_attempts_are_backoff():
    clock, tracer = _tracer()
    root = tracer.start_span("chaos.op")
    for _ in range(3):
        attempt = tracer.start_span("cluster.rpc", parent=root.context)
        clock.advance(10)
        attempt.end()
        paused_from = clock.now_us
        clock.advance(20)  # backoff pause between attempts
        tracer.record_wait(
            root.context,
            "retry_backoff",
            start_us=paused_from,
            end_us=clock.now_us,
        )
    root.end()  # [0, 90): 3 x 10us attempts + 3 x 20us backoffs
    segments = extract_critical_path(tracer.finished, tracer.waits, root)
    _assert_tiles(segments, 0, 90)
    causes = _by_cause(segments)
    assert causes["retry_backoff"] == 60
    assert causes[UNATTRIBUTED] == 30  # the attempts themselves


def test_hedged_parallel_children_follow_last_finisher_clipped():
    clock, tracer = _tracer()
    root = tracer.start_span("chaos.op")
    clock.advance(10)
    primary = tracer.start_span("tablet.read", parent=root.context)
    clock.advance(30)
    hedge = tracer.start_span("tablet.read", parent=root.context)
    hedge.set_attribute("hedge", True)
    clock.advance(40)
    hedge.end()  # [40, 80) — the hedge wins
    root.end()  # [0, 80): first response completes the request
    clock.advance(20)
    primary.end()  # [10, 100) — straggler outlives the root
    segments = extract_critical_path(tracer.finished, tracer.waits, root)
    # nothing on the path may leak past the root's end
    _assert_tiles(segments, 0, 80)
    assert all(s.end_us <= 80 for s in segments)


def test_failover_mid_request_names_quorum_and_apply():
    clock, tracer = _tracer()
    root = tracer.start_span("chaos.op")
    root.wait("quorum_rtt", start_us=0, end_us=120, detail="leader dark")
    clock.advance(120)
    root.wait("replication_apply", start_us=120, end_us=150)
    clock.advance(30)
    clock.advance(5)
    root.end()  # [0, 155)
    segments = extract_critical_path(tracer.finished, tracer.waits, root)
    _assert_tiles(segments, 0, 155)
    assert _by_cause(segments) == {
        "quorum_rtt": 120,
        "replication_apply": 30,
        UNATTRIBUTED: 5,
    }
    assert segments[0].detail == "leader dark"


def test_child_leaking_past_rpc_boundary_is_clipped():
    clock, tracer = _tracer()
    root = tracer.start_span("frontend.rpc")
    clock.advance(50)
    child = tracer.start_span("backend.flush", parent=root.context)
    child.end(end_us=200)  # runs 100us past the parent
    root.end(end_us=100)
    segments = extract_critical_path(tracer.finished, tracer.waits, root)
    _assert_tiles(segments, 0, 100)


def test_zero_duration_children_vanish():
    clock, tracer = _tracer()
    root = tracer.start_span("backend.get")
    clock.advance(5)
    tracer.start_span("cache.probe", parent=root.context).end()
    clock.advance(5)
    root.end()
    segments = extract_critical_path(tracer.finished, tracer.waits, root)
    _assert_tiles(segments, 0, 10)
    assert [s.span_name for s in segments] == ["backend.get"]


def test_self_cause_attribute_claims_residual():
    clock, tracer = _tracer()
    root = tracer.start_span("pool.exec")
    root.set_attribute("self_cause", "service")
    clock.advance(25)
    root.end()
    (path,) = request_paths(tracer.finished, tracer.waits)
    assert path.decomposition == {"service": 25}
    assert path.unattributed_us == 0


def test_adjacent_same_cause_segments_merge():
    clock, tracer = _tracer()
    root = tracer.start_span("chaos.op")
    root.wait("queue", start_us=0, end_us=10)
    root.wait("queue", start_us=10, end_us=30)
    clock.advance(30)
    root.end()
    segments = extract_critical_path(tracer.finished, tracer.waits, root)
    assert [(s.start_us, s.end_us, s.cause) for s in segments] == [
        (0, 30, "queue")
    ]


def test_orphaned_span_becomes_its_own_request():
    clock, tracer = _tracer()
    abandoned = tracer.start_span("chaos.op")  # never ends
    rpc = tracer.start_span("cluster.rpc", parent=abandoned.context)
    clock.advance(15)
    rpc.end()
    paths = request_paths(tracer.finished, tracer.waits)
    assert [p.operation for p in paths] == ["cluster.rpc"]
    assert paths[0].elapsed_us == 15


def test_modeled_waits_price_on_top_of_elapsed():
    clock, tracer = _tracer()
    root = tracer.start_span(
        "chaos.op", attributes={"operation": "commit", "database_id": "db1"}
    )
    clock.advance(100)
    root.wait("rpc_network", duration_us=694)
    root.wait("commit_wait", duration_us=250)
    root.end()
    (path,) = request_paths(tracer.finished, tracer.waits)
    assert path.elapsed_us == 100
    assert path.modeled_us == 944
    assert path.total_us == 1044
    assert path.decomposition["rpc_network"] == 694
    assert path.decomposition["commit_wait"] == 250
    # modeled entries also show up in the folded stacks
    folded = folded_paths([path])
    assert "commit;chaos.op;rpc_network 694" in folded


def test_analyze_summary_deterministic_and_renders():
    def build():
        clock, tracer = _tracer(seed=6)
        for latency in (10, 20, 400):
            root = tracer.start_span(
                "chaos.op", attributes={"operation": "get"}
            )
            root.wait("queue", start_us=clock.now_us, end_us=clock.now_us + latency)
            clock.advance(latency)
            root.end()
        return tracer

    first = analyze(build())
    second = analyze(build())
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    assert first["coverage"]["ok"]
    assert first["coverage"]["ratio"] == 1.0
    assert first["operations"]["get"]["top_tail_causes"] == ["queue"]
    report = render_text(first)
    assert "coverage 100.00%" in report
    assert "queue" in report


def test_coverage_gate_fails_on_unattributed_tail():
    clock, tracer = _tracer()
    root = tracer.start_span("chaos.op")
    clock.advance(1000)  # no wait records, no self_cause: a tap hole
    root.end()
    summary = analyze(tracer)
    assert summary["coverage"]["ratio"] == 0.0
    assert not summary["coverage"]["ok"]
    assert summary["coverage"]["target"] == COVERAGE_TARGET


# -- tail sampler --------------------------------------------------------------


def test_tail_sampler_keeps_slowest_per_window():
    sampler = TailSampler(keep=2, window_us=1_000)
    for trace_id, total in (("t1", 10), ("t2", 500), ("t3", 90), ("t4", 300)):
        sampler.offer("get", "db1", trace_id, total, start_us=0)
    assert sampler.retained() == {"t2", "t4"}
    assert sampler.offered == 4
    assert sampler.retained_count() == 2


def test_tail_sampler_windows_and_keys_are_independent():
    sampler = TailSampler(keep=1, window_us=1_000)
    sampler.offer("get", "db1", "a", 10, start_us=0)
    sampler.offer("get", "db1", "b", 5, start_us=1_500)  # next window
    sampler.offer("commit", "db1", "c", 1, start_us=0)  # other operation
    assert sampler.retained() == {"a", "b", "c"}


def test_tail_sampler_ties_break_toward_smaller_trace_id():
    sampler = TailSampler(keep=1)
    assert sampler.offer("get", "db", "zz", 100)
    assert not sampler.offer("get", "db", "aa", 100) or True
    assert sampler.retained() == {"aa"}


def test_tail_sampler_prune_drops_non_retained_traces():
    clock, tracer = _tracer()
    slow = tracer.start_span("chaos.op")
    slow.wait("queue", start_us=0, end_us=500)
    clock.advance(500)
    slow.end()
    fast = tracer.start_span("chaos.op")
    clock.advance(10)
    fast.end()
    sampler = TailSampler(keep=1, window_us=10_000)
    sampler.offer("chaos.op", "", slow.trace_id, 500, start_us=0)
    sampler.offer("chaos.op", "", fast.trace_id, 10, start_us=500)
    dropped = sampler.prune(tracer)
    assert dropped == 1
    assert {span.trace_id for span in tracer.finished} == {slow.trace_id}
    assert {wait.trace_id for wait in tracer.waits} == {slow.trace_id}


def test_tail_sampler_validates_arguments():
    with pytest.raises(ValueError):
        TailSampler(keep=0)
    with pytest.raises(ValueError):
        TailSampler(window_us=0)


# -- acceptance: the traced chaos scenarios ------------------------------------


def test_overload_storm_blames_queue_and_retry_backoff():
    from repro.faults.chaos import run_chaos

    run = run_chaos("overload-storm", seed=7, mix="none", trace=True)
    summary = run.extra["critpath"]
    assert summary["coverage"]["ok"]
    assert summary["coverage"]["ratio"] >= COVERAGE_TARGET
    top = summary["operations"]["get"]["top_tail_causes"]
    assert "queue" in top
    assert "retry_backoff" in top
    assert (
        summary["requests"],
        summary["spans"],
        summary["coverage"]["unattributed_us"],
        summary["sampler"]["retained"],
    ) == (5986, 20238, 0, 144)


def test_failover_blames_quorum_and_replication_apply():
    from repro.faults.chaos import run_chaos

    run = run_chaos("failover", seed=5, mix="region-outage", trace=True)
    summary = run.extra["critpath"]
    assert summary["coverage"]["ok"]
    top = summary["operations"]["commit"]["top_tail_causes"]
    assert "quorum_rtt" in top
    assert "replication_apply" in top
    assert (
        summary["requests"],
        summary["spans"],
        summary["coverage"]["unattributed_us"],
        summary["sampler"]["retained"],
    ) == (59, 317, 0, 25)


def test_tracing_does_not_perturb_the_run():
    from repro.faults.chaos import run_chaos

    untraced = run_chaos("failover", seed=5, mix="region-outage")
    traced = run_chaos("failover", seed=5, mix="region-outage", trace=True)
    assert traced.attempted == untraced.attempted
    assert traced.succeeded == untraced.succeeded
    assert traced.latency_percentile(99) == untraced.latency_percentile(99)


def test_traced_failover_byte_identical_on_replay():
    from repro.analysis.replay import run_replay
    from repro.faults.chaos import run_chaos

    def once():
        run = run_chaos("failover", seed=5, mix="region-outage", trace=True)
        return {"history": run.histories, "extra": run.to_dict()}

    report = run_replay(once, runs=2)
    assert report.deterministic


def test_cli_writes_artifacts(tmp_path, capsys):
    status = main(
        ["--scenario", "failover", "--out", str(tmp_path), "--no-svg"]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "critical-path attribution" in out
    payload = json.loads((tmp_path / "CRITPATH_failover.json").read_text())
    assert payload["schema"] == "repro.critpath/1"
    assert payload["coverage"]["ok"]
