"""End-to-end: real-system scenarios check clean, the CLIs' exit codes,
and the ``pytest --check`` per-test wiring."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.__main__ import main as check_main
from repro.check.checker import check_history
from repro.check.history import HistoryRecorder
from repro.faults.__main__ import main
from repro.faults.chaos import run_chaos

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("scenario", ["commit", "isolation"])
@pytest.mark.parametrize("seed", [0, 7])
def test_real_scenarios_check_clean(scenario, seed):
    result = run_chaos(scenario, seed, "none")
    assert sum(len(history) for history in result.histories) > 0
    assert result.violations == []


def test_acceptance_run_is_clean():
    """Traced YCSB (seed 42, 50 ops, no faults) checks clean."""
    result = run_chaos("ycsb", 42, "none", 50)
    assert sum(len(history) for history in result.histories) > 0
    assert result.violations == []


def test_isolation_scenario_survives_perturbation():
    result = run_chaos("isolation", 3, "none", mode="delay")
    assert result.violations == []


def _one(scenario, seed, *extra):
    return [
        "--scenarios", scenario, "--mixes", "none", "--seed-base",
        str(seed), "--seeds", "1", "--out", "-", *extra,
    ]


def test_cli_exit_codes(capsys):
    assert main(_one("commit", 1)) == 0
    assert main(_one("anomaly-lost-update", 1)) == 1
    out = capsys.readouterr().out
    assert "[lost-update]" in out
    assert main(["--explore", "--modes", "chaos", "--out", "-"]) == 2
    assert main(["--explore", "--modes", "flip", "--out", "-"]) == 2
    with pytest.raises(SystemExit):
        check_main([])
    capsys.readouterr()


def test_cli_log_out_then_check_log(tmp_path, capsys):
    artifacts = tmp_path / "artifacts"
    assert (
        main(_one("anomaly-non-monotonic-ts", 2, "--artifacts", str(artifacts)))
        == 1
    )
    log = artifacts / "anomaly-non-monotonic-ts-none-seed2.history.jsonl"
    events = HistoryRecorder.parse_jsonl(log.read_text())
    assert events and check_history(events)
    assert check_main(["--check-log", str(log)]) == 1
    capsys.readouterr()


def test_cli_explore_prints_reproducers(capsys):
    code = main(
        [
            "--explore",
            "--scenarios",
            "anomaly-write-skew",
            "--mixes",
            "none",
            "--seeds",
            "4",
            "--modes",
            "none",
            "--out",
            "-",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "python -m repro.faults --scenarios anomaly-write-skew" in out


def test_pytest_check_flag_wires_the_teardown(tmp_path):
    """--check records every test's databases and fails the test whose
    history is broken (via a deliberately poisoned recorder)."""
    shutil.copy(REPO / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_checked.py").write_text(
        """
from types import SimpleNamespace

from repro.check.history import install
from repro.core.backend import set_op
from repro.core.firestore import FirestoreService


def test_clean_commit():
    import os

    service = FirestoreService(multi_region=False)
    db = service.create_database("ok")
    db.commit([set_op("docs/a", {"n": 1})])
    if os.environ.get("REPRO_CHECK") == "1":
        assert db.layout.spanner.recorder is not None


def test_poisoned_history():
    recorder = install(SimpleNamespace(clock=None, name="bad", recorder=None))
    recorder.txn_begin(1, 0)
    recorder.txn_commit(1, 100, [(b"k", "w")], 0, None, 98, 102)
    recorder.txn_begin(2, 0)
    recorder.txn_commit(2, 90, [(b"j", "w")], 0, None, 88, 92)
"""
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_CHECK", None)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--check",
            "-q",
            "-p",
            "no:cacheprovider",
            str(tmp_path / "test_checked.py"),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode != 0
    assert "test_clean_commit" not in output or "1 passed" in output
    assert "CheckerViolation" in output
    assert "non-monotonic-commit" in output
    # without --check the poisoned recorder is never drained or judged
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            str(tmp_path / "test_checked.py"),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
