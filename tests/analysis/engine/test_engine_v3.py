"""Driver-level tests for the v3 engine: report formats, the ledger
staleness guard, pragma handling and cross-seed determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine.driver import _staleness_warnings, run_engine
from repro.analysis.engine.perflint import Engine
from repro.analysis.reprolint import _iter_sources, _parse

FIXTURES = Path(__file__).parent / "fixtures"
CONCPKG = FIXTURES / "concpkg"
REPO_ROOT = Path(__file__).resolve().parents[3]

V3_CHECKS = {
    "atomicity-across-yield",
    "lock-discipline",
    "typestate",
    "error-escape",
}

GENEROUS_BUDGET = (
    '["service/"]\nmax = 99\n'
    '["core/"]\nmax = 99\n'
    '["spanner/"]\nmax = 99\n'
    '["sim/"]\nmax = 99\n'
)


def _run(tmp_path, report_format="text", out_path=None):
    budget = tmp_path / "budget.toml"
    budget.write_text(GENEROUS_BUDGET)
    out = io.StringIO()
    rc = run_engine(
        root=CONCPKG,
        budget_path=budget,
        ledger_path=tmp_path / "missing_ledger.json",
        out=out,
        report_format=report_format,
        out_path=out_path,
    )
    return rc, out.getvalue()


# -- report formats ----------------------------------------------------------


def test_text_report_carries_all_four_checks(tmp_path):
    rc, text = _run(tmp_path)
    assert rc == 1
    for check in sorted(V3_CHECKS):
        assert f": {check}: " in text


def test_json_report(tmp_path):
    rc, text = _run(tmp_path, report_format="json")
    assert rc == 1
    payload = json.loads(text)
    assert payload["exit_code"] == 1
    assert V3_CHECKS <= {f["check"] for f in payload["findings"]}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "check", "message"}
    assert {b["prefix"] for b in payload["budget"]} == {
        "service/", "core/", "spanner/", "sim/"
    }
    assert isinstance(payload["warnings"], list)


def test_json_report_writes_artifact_file(tmp_path):
    report = tmp_path / "engine-report.json"
    rc, text = _run(tmp_path, report_format="json", out_path=report)
    assert rc == 1
    assert text == ""  # everything went to the file
    payload = json.loads(report.read_text())
    assert payload["exit_code"] == 1


def test_reports_are_byte_identical_across_hash_seeds(tmp_path):
    outs = []
    for seed in ("0", "1"):
        budget = tmp_path / "budget.toml"
        budget.write_text(GENEROUS_BUDGET)
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        code = (
            "import sys\n"
            "from repro.analysis.engine.driver import run_engine\n"
            f"sys.exit(run_engine(root={str(CONCPKG)!r}, "
            f"budget_path={str(budget)!r}, "
            f"ledger_path={str(tmp_path / 'missing_ledger.json')!r}, "
            "report_format='json'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# -- pragmas -----------------------------------------------------------------


def test_v3_findings_are_suppressible_by_pragma(tmp_path):
    root = tmp_path / "pkg"
    (root / "service").mkdir(parents=True)
    (root / "service" / "mod.py").write_text(
        "def bad(db):\n"
        "    txn = db.begin()\n"
        "    txn.commit()\n"
        "    # reprolint: disable=typestate -- fixture: exercising pragma flow\n"
        "    txn.commit()\n"
    )
    budget = tmp_path / "budget.toml"
    budget.write_text('["service/"]\nmax = 0\n')
    out = io.StringIO()
    rc = run_engine(
        root=root,
        budget_path=budget,
        ledger_path=tmp_path / "missing_ledger.json",
        out=out,
    )
    assert rc == 0, out.getvalue()
    assert "engine: 0 findings" in out.getvalue()


# -- staleness guard ---------------------------------------------------------


@pytest.fixture()
def engine():
    modules = [_parse(p, CONCPKG) for p in _iter_sources(CONCPKG)]
    return Engine.build(modules, ledger_path=None)


def _ledger(tmp_path, functions):
    path = tmp_path / "speed_ledger.json"
    path.write_text(
        json.dumps({"run": "fixture run", "functions": functions})
    )
    return path


RESOLVING = [
    {"file": "service/races.py", "function": "bad_shift", "line": 13,
     "self_s": 0.5},
    {"file": "spanner/locks.py", "function": "acquire", "line": 9,
     "self_s": 0.5},
]


def test_unresolvable_ledger_warns_stale(engine, tmp_path):
    ledger = _ledger(
        tmp_path,
        [
            {"file": "gone/old.py", "function": "vanished", "line": 1,
             "self_s": 1.0},
            {"file": "gone/old.py", "function": "renamed", "line": 9,
             "self_s": 1.0},
        ],
    )
    warnings = _staleness_warnings(engine, ledger)
    assert len(warnings) == 1
    assert "stale" in warnings[0] and "0/2" in warnings[0]


def test_healthy_ledger_stays_quiet(engine, tmp_path):
    ledger = _ledger(tmp_path, RESOLVING)
    assert _staleness_warnings(engine, ledger) == []


def test_missing_ledger_is_not_stale(engine, tmp_path):
    assert _staleness_warnings(engine, tmp_path / "nope.json") == []
