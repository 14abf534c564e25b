"""The chaos runner: per-scenario smoke, sweep aggregation, replay, CLI."""

import json

import pytest

from repro.faults.chaos import (
    SCENARIOS,
    default_ops,
    replay_digest,
    run_chaos,
    sweep,
)


def test_control_mix_injects_nothing_and_stays_clean():
    run = run_chaos("commit", seed=1, mix="none", ops=6)
    assert run.ok
    assert run.attempted == 6
    assert run.succeeded == 6
    assert run.availability == 1.0
    assert run.injected == {}
    assert run.histories  # the recording context captured the run


def test_commit_chaos_under_storage_faults():
    run = run_chaos("commit", seed=3, mix="storage", ops=10)
    assert run.ok, (run.violations, run.extra)
    assert run.attempted == 10
    # accounting invariant: the counter equals the ledger, always
    assert run.extra["counter"] == run.extra["ledger_applied"]


def test_fanout_chaos_converges_after_network_faults():
    run = run_chaos("realtime-fanout", seed=2, mix="network", ops=10)
    assert run.ok, (run.violations, run.extra)
    assert run.converged


def test_ycsb_chaos_accounts_drops_and_crashes():
    run = run_chaos("ycsb", seed=0, mix="chaos")
    assert run.ok, run.violations
    assert run.attempted == run.succeeded + run.failed
    # every request the runner issued, counted over the whole run:
    # 248 completed, 0 rejected, 6 failed
    assert run.attempted == 254
    assert run.succeeded == 248
    assert 0.0 < run.availability <= 1.0
    assert set(run.extra) >= {
        "read_p99_us",
        "update_p99_us",
        "achieved_qps",
        "task_crashes",
        "deadline_expired",
    }


def test_chaos_mix_over_commit_scenario():
    run = run_chaos("commit", seed=5, mix="chaos", ops=10)
    assert run.ok, (run.violations, run.extra)


def test_same_seed_same_run():
    a = run_chaos("commit", seed=4, mix="storage", ops=8)
    b = run_chaos("commit", seed=4, mix="storage", ops=8)
    assert a.to_dict() == b.to_dict()
    assert a.histories == b.histories


def test_to_dict_is_json_serializable():
    run = run_chaos("commit", seed=1, mix="storage", ops=6)
    payload = json.dumps(run.to_dict(), sort_keys=True)
    assert '"scenario": "commit"' in payload


def test_unknown_scenario_and_defaults():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_chaos("nope", seed=0, mix="none")
    for name, (_builder, dflt) in SCENARIOS.items():
        assert default_ops(name) == dflt > 0


def test_sweep_summary_shape():
    runs, summary = sweep(
        ["commit"], seeds=[0, 1], mixes=["none", "storage"], ops=6
    )
    assert len(runs) == 4
    assert summary["sweep"]["runs"] == 4
    assert summary["violations"] == 0
    assert summary["exactly_once_failures"] == 0
    assert summary["convergence_failures"] == 0
    assert set(summary["cells"]) == {"commit/none", "commit/storage"}
    for cell in summary["cells"].values():
        assert cell["runs"] == 2
        assert 0.0 <= cell["availability"] <= 1.0
        assert cell["latency_p99_us"] >= cell["latency_p50_us"] >= 0
    assert summary["cells"]["commit/none"]["total_injected"] == 0


def test_sweep_rejects_unknown_mix():
    with pytest.raises(ValueError, match="unknown fault mix"):
        sweep(["commit"], seeds=[0], mixes=["bogus"])


def test_replay_digest_is_byte_identical():
    report = replay_digest("commit", seed=1, mix="storage", ops=6)
    assert report.deterministic


def test_cli_writes_summary_and_exits_zero(tmp_path, capsys):
    from repro.faults.__main__ import main

    out = tmp_path / "BENCH_faults.json"
    rc = main(
        [
            "--scenarios",
            "commit",
            "--mixes",
            "none,storage",
            "--seeds",
            "2",
            "--ops",
            "6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    # the unified BENCH schema (repro.obs.bench): hard verdicts as exact
    # metrics, pooled SLO verdicts, the full sweep summary under raw
    assert payload["schema_version"] == 1
    assert payload["name"] == "faults"
    assert payload["metrics"]["violations"] == {
        "value": 0, "unit": "count", "kind": "exact",
    }
    assert "replay_failures" in payload["metrics"]
    assert payload["slos"]["chaos.convergence"]["ok"]
    assert "commit/storage" in payload["raw"]["cells"]
    assert "commit/storage" in capsys.readouterr().out


def test_cli_usage_errors(capsys):
    from repro.faults.__main__ import main

    assert main(["--scenarios", "nope", "--out", "-"]) == 2
    assert main(["--mixes", "bogus", "--out", "-"]) == 2
    assert main(["--seeds", "0", "--out", "-"]) == 2
    capsys.readouterr()
