"""reprolint: every check catches its bad fixture and passes the good one.

The fixtures under ``fixtures/badpkg`` and ``fixtures/goodpkg`` are mini
package trees whose directory names reuse the real subsystem names, so
the path-sensitive checks (layering, determinism allowlist, start_span
allowlist) exercise exactly the logic they apply to ``src/repro``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine.driver import CHECKS
from repro.analysis.reprolint import lint_tree, main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "badpkg"
GOOD = FIXTURES / "goodpkg"
CONCPKG = Path(__file__).parent / "engine" / "fixtures" / "concpkg"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bad_diagnostics():
    return lint_tree(root=BAD)


def by_check(diagnostics, check):
    return [d for d in diagnostics if d.check == check]


def test_bad_tree_fails_and_good_tree_passes():
    assert lint_tree(root=BAD)
    assert lint_tree(root=GOOD) == []


def test_wallclock_catches_every_flavour(bad_diagnostics):
    found = by_check(bad_diagnostics, "wallclock")
    assert {d.path for d in found} == {"core/uses_wallclock.py"}
    rendered = "\n".join(d.message for d in found)
    for banned in (
        "time.time",
        "time.monotonic",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid4",
        "secrets.token_hex",
    ):
        assert banned in rendered, banned


def test_banned_import_catches_random(bad_diagnostics):
    found = by_check(bad_diagnostics, "banned-import")
    paths = {d.path for d in found}
    assert "core/bad_imports.py" in paths
    # time imported inside a function body is still an import
    assert "core/uses_wallclock.py" in paths
    # the pragma without a reason does NOT suppress
    assert "core/bad_pragma.py" in paths


def test_set_iteration_catches_three_shapes(bad_diagnostics):
    found = by_check(bad_diagnostics, "set-iteration")
    assert [d.path for d in found] == ["spanner/bad_sets.py"] * 3
    lines = sorted(d.line for d in found)
    assert len(lines) == 3  # literal, set() comprehension, local binding


def test_layering_catches_realtime_to_client(bad_diagnostics):
    found = by_check(bad_diagnostics, "layering")
    messages = "\n".join(d.message for d in found)
    assert "'realtime' may not import 'repro.client'" in messages
    assert "'realtime' may not import 'repro.service'" in messages


def test_error_boundary_and_bare_except(bad_diagnostics):
    boundary = by_check(bad_diagnostics, "error-boundary")
    messages = "\n".join(d.message for d in boundary)
    assert "HomegrownError" in messages
    assert "not Exception" in messages
    assert "another subsystem's exception" in messages
    bare = by_check(bad_diagnostics, "bare-except")
    assert [d.path for d in bare] == ["core/bad_errors.py"]


def test_history_tap_catches_dropped_and_missing_taps(bad_diagnostics):
    found = by_check(bad_diagnostics, "history-tap")
    assert {d.path for d in found} == {"spanner/transaction.py"}
    messages = "\n".join(d.message for d in found)
    # the fault-injection path kept its name but lost its recorder tap
    assert "ReadWriteTransaction._inject_commit_faults" in messages
    # _abort disappeared entirely
    assert "ReadWriteTransaction._abort" in messages
    # the still-tapped methods are not flagged
    assert "read_versioned" not in messages
    assert "txn_begin" not in messages


def test_perf_attribution_catches_untagged_and_missing(bad_diagnostics):
    found = by_check(bad_diagnostics, "perf-attribution")
    assert {d.path for d in found} == {
        "spanner/transaction.py",
        "service/pool.py",
        "client/client.py",
    }
    messages = "\n".join(d.message for d in found)
    # commit kept its name but lost its profiler tag
    assert "ReadWriteTransaction.commit" in messages
    # the dispatch loop burns service time without accounting it
    assert "TaskPool._dispatch" in messages
    # flush was renamed away entirely — the missing-method arm
    assert "MobileClient.flush" in messages
    assert "was not found" in messages


def test_wait_tap_catches_untapped_and_missing(bad_diagnostics):
    found = by_check(bad_diagnostics, "wait-tap")
    messages = "\n".join(d.message for d in found)
    # read_versioned / commit exist but never annotate a wait cause
    assert "ReadWriteTransaction.read_versioned" in messages
    assert "ReadWriteTransaction.commit" in messages
    assert "unattributed" in messages
    # _lock_abort disappeared entirely — the missing-path arm
    assert "_lock_abort" in messages
    assert "was not found" in messages


def test_trace_span_context(bad_diagnostics):
    found = by_check(bad_diagnostics, "trace-span-context")
    assert {d.path for d in found} == {"core/bad_trace.py"}
    messages = "\n".join(d.message for d in found)
    assert "context manager" in messages
    assert "start_span" in messages


def test_fault_seeded_catches_unseeded_plan_and_stream(bad_diagnostics):
    found = by_check(bad_diagnostics, "fault-seeded")
    assert {d.path for d in found} == {"faults/bad_seed.py"}
    assert len(found) == 2  # the unseeded FaultPlan and the bare SimRandom
    messages = "\n".join(d.message for d in found)
    assert "explicit seed" in messages
    assert "SimRandom()" in messages


def test_pragma_requires_reason_and_known_check(bad_diagnostics):
    found = by_check(bad_diagnostics, "pragma")
    messages = "\n".join(d.message for d in found)
    assert "requires a reason" in messages
    assert "unknown check" in messages


def test_diagnostics_have_positions_and_render(bad_diagnostics):
    for diag in bad_diagnostics:
        assert diag.line >= 1
        assert ":" in diag.render()
        assert diag.render().startswith(diag.path)


def test_cli_exit_codes(capsys):
    assert main(["--root", str(BAD)]) == 1
    out = capsys.readouterr()
    assert "core/uses_wallclock.py" in out.out
    assert "violation(s)" in out.out
    assert main(["--root", str(GOOD)]) == 0
    assert main(["--list-checks"]) == 0
    assert main(["--root", str(BAD), "--check", "no-such"]) == 2


def test_cli_single_check_filter():
    assert main(["--root", str(BAD), "--check", "bare-except"]) == 1
    assert main(["--root", str(GOOD), "--check", "bare-except"]) == 0


def test_cli_check_accepts_engine_ids(capsys):
    assert main(["--root", str(CONCPKG), "--check", "lock-discipline"]) == 1
    findings = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.partition(":")[2][:1].isdigit()  # path:line:col: ...
    ]
    assert findings
    assert all(": lock-discipline: " in line for line in findings)


def test_list_checks_prints_every_table_id(capsys):
    assert main(["--list-checks"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(CHECKS)
    assert "lock-discipline" in listed and "set-iteration" in listed


def _cli_json(cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.analysis", "--format", "json", *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def home_run():
    """The one in-process analyser run over the real tree, from the repo
    root: (exit code, json report)."""
    previous = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["--format", "json"])
    finally:
        os.chdir(previous)
    return code, json.loads(out.getvalue())


def test_verdict_does_not_depend_on_the_cwd(tmp_path, request):
    # the committed ledger and budget resolve from the package, not the
    # cwd, and apply to the package alone; the two children run while
    # the in-process run does
    away = _cli_json(tmp_path)
    fixture = _cli_json(REPO_ROOT, "--root", str(GOOD))
    home = request.getfixturevalue("home_run")[1]
    away, fixture = (json.loads(p.communicate()[0]) for p in (away, fixture))
    assert away == home
    assert away["hot"] > 0
    assert away["budget"]
    assert fixture["budget"] == []
    assert fixture["hot"] == 0
    assert fixture["exit_code"] == 0


def test_self_clean(home_run):
    """The acceptance criterion: the real tree lints clean."""
    assert home_run[0] == 0
