"""Engine driver: the speed budget, pragma handling, and determinism.

The byte-identical test runs the CLI twice under different
``PYTHONHASHSEED`` values: sorted worklists and dict-as-ordered-set
bookkeeping mean the full report must not move by a single byte.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine.driver import (
    _apply_pragmas,
    _budget_key,
    _parse_budget_text,
    load_budget,
    run_engine,
)
from repro.analysis.reprolint import ParsedModule

FIXTURES = Path(__file__).parent / "fixtures"
ENGINEPKG = FIXTURES / "enginepkg"
ENGINE_LEDGER = FIXTURES / "enginepkg_ledger.json"
PERFPKG = FIXTURES / "perfpkg"
PERF_LEDGER = FIXTURES / "perfpkg_ledger.json"
REPO_ROOT = Path(__file__).resolve().parents[3]

BUDGET_TEXT = (
    "# ratchet fixture\n"
    '["service/"]\n'
    "max = 1 # one reviewed finding\n"
    "\n"
    '["service/hot.py"]\n'
    "max = 0\n"
    "\n"
    '["core/"]\n'
    "max = 2\n"
)


# -- budget parsing ----------------------------------------------------------


def test_load_budget_and_text_fallback_agree(tmp_path):
    budget_file = tmp_path / "budget.toml"
    budget_file.write_text(BUDGET_TEXT)
    expected = {"service/": 1, "service/hot.py": 0, "core/": 2}
    assert load_budget(budget_file) == expected
    assert _parse_budget_text(BUDGET_TEXT) == expected


def test_budget_key_longest_prefix_wins():
    budget = {"service/": 1, "service/hot.py": 0, "core/": 2}
    assert _budget_key("service/hot.py", budget) == "service/hot.py"
    assert _budget_key("service/other.py", budget) == "service/"
    assert _budget_key("core/doc.py", budget) == "core/"
    assert _budget_key("rules/match.py", budget) == ""


# -- budget metering ---------------------------------------------------------


def _write_budget(tmp_path, text):
    budget_file = tmp_path / "budget.toml"
    budget_file.write_text(text)
    return budget_file


def test_budget_allows_exactly_the_reviewed_count(tmp_path):
    # perfpkg produces exactly 7 budgeted findings and zero hard ones
    budget = _write_budget(tmp_path, '["service/"]\nmax = 7\n')
    out = io.StringIO()
    rc = run_engine(
        root=PERFPKG, budget_path=budget, ledger_path=PERF_LEDGER, out=out
    )
    assert rc == 0
    text = out.getvalue()
    assert "engine: 0 findings" in text
    assert "service/".ljust(24) + " 7/7 ok" in text


def test_budget_ratchet_fails_one_below(tmp_path):
    budget = _write_budget(tmp_path, '["service/"]\nmax = 6\n')
    out = io.StringIO()
    rc = run_engine(
        root=PERFPKG, budget_path=budget, ledger_path=PERF_LEDGER, out=out
    )
    assert rc == 1
    text = out.getvalue()
    assert "service/".ljust(24) + " 7/6 OVER" in text
    assert "violation(s)" in text


def test_uncovered_path_has_zero_allowance(tmp_path):
    budget = _write_budget(tmp_path, '["realtime/"]\nmax = 5\n')
    out = io.StringIO()
    rc = run_engine(
        root=PERFPKG, budget_path=budget, ledger_path=PERF_LEDGER, out=out
    )
    assert rc == 1
    assert "no speed-budget entry covers this path" in out.getvalue()


# -- pragmas -----------------------------------------------------------------

HOT_LOOP = (
    "def hot_loop(items):\n"
    "    out = 0\n"
    "    for item in items:\n"
    "{pragma}"
    "        pair = [item, out]\n"
    "        out += len(pair)\n"
    "    return out\n"
)
PRAGMA = (
    "        # reprolint: disable=hot-loop-alloc"
    " -- fixture: suppression under test\n"
)


def _mini_tree(tmp_path, pragma):
    root = tmp_path / "pkg"
    (root / "service").mkdir(parents=True)
    (root / "service" / "x.py").write_text(
        HOT_LOOP.format(pragma=pragma)
    )
    ledger = tmp_path / "ledger.json"
    ledger.write_text(
        '{"run": "t", "functions": [{"file": "service/x.py",'
        ' "function": "hot_loop", "line": 1, "self_fraction": 0.5}]}'
    )
    budget = _write_budget(tmp_path, '["service/"]\nmax = 0\n')
    return root, ledger, budget


def test_reasoned_pragma_suppresses_engine_finding(tmp_path):
    root, ledger, budget = _mini_tree(tmp_path, PRAGMA)
    out = io.StringIO()
    rc = run_engine(root=root, budget_path=budget, ledger_path=ledger, out=out)
    assert rc == 0
    assert "engine: 0 findings" in out.getvalue()


def test_without_pragma_the_finding_lands(tmp_path):
    root, ledger, budget = _mini_tree(tmp_path, "")
    out = io.StringIO()
    rc = run_engine(root=root, budget_path=budget, ledger_path=ledger, out=out)
    assert rc == 1
    assert "hot-loop-alloc" in out.getvalue()


def _module(source):
    return ParsedModule(Path("/fixture/service/m.py"), "service/m.py", source)


def test_engine_check_ids_are_pragma_recognizable():
    diags = _apply_pragmas(
        [
            _module(
                "def f():\n"
                "    pass\n"
                "# reprolint: disable=hot-loop-alloc,wallclock-indirect"
                " -- engine ids are known to the pragma layer\n"
            )
        ],
        [],
    )
    assert diags == []


def test_unknown_check_in_pragma_is_reported():
    diags = _apply_pragmas(
        [_module("# reprolint: disable=flux-capacitor -- not a check\n")], []
    )
    assert len(diags) == 1
    assert diags[0].check == "pragma"
    assert "unknown check 'flux-capacitor'" in diags[0].message
    assert "wallclock-indirect" in diags[0].message


def test_pragma_without_reason_is_rejected():
    diags = _apply_pragmas(
        [_module("# reprolint: disable=hot-loop-alloc\n")], []
    )
    assert len(diags) == 1
    assert diags[0].check == "pragma"
    assert "requires a reason" in diags[0].message


# -- byte-identical determinism ----------------------------------------------


def _run_cli(hashseed, budget):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    code = (
        "import sys\n"
        "from repro.analysis.engine.driver import run_engine\n"
        f"sys.exit(run_engine(root={str(ENGINEPKG)!r}, "
        f"budget_path={str(budget)!r}, ledger_path={str(ENGINE_LEDGER)!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


def test_report_is_byte_identical_across_hash_seeds(tmp_path):
    budget = _write_budget(
        tmp_path, '["service/"]\nmax = 1\n\n["core/"]\nmax = 0\n'
    )
    first = _run_cli("0", budget)
    second = _run_cli("1", budget)
    assert first.returncode == second.returncode == 1
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    text = first.stdout.decode()
    # the full pipeline surfaced in one deterministic report: taint
    # chain, per-file findings, budget table
    assert "read_now -> now_ms -> raw_now -> time.time" in text
    assert "banned-import" in text
    assert "speed budget (used/allowed):" in text
    assert "service/".ljust(24) + " 1/1 ok" in text
