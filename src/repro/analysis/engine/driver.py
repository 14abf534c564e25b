"""The analyser's one pipeline: every check, one table, one report.

``python -m repro.analysis`` parses the tree once, builds the engine IR
(symbol table, call graph, hot-path overlay), runs every pass named in
:data:`CHECKS` — the per-file checks of :mod:`repro.analysis.checks`
and the engine passes (dataflow set iteration, wallclock taint, hot-path
perflint, concurrency, typestate, error escape) — applies the inline
pragmas in one pass, and meters the perf findings against the speed
budget:

.. code-block:: toml

    ["sim/"]
    max = 0          # the kernel must stay perflint-clean, no pragmas

    ["service/"]
    max = 3          # reviewed allowance; lowering it is the ratchet

Budget keys are path prefixes relative to the package root; the longest
matching prefix wins, and a path with no matching key has an allowance
of zero. Only the checks the table marks *budgeted* are metered —
determinism, layering, taint and concurrency findings are hard failures
always. The committed budget and hot-path ledger describe the ``repro``
package, so they apply only when it is the root being analysed, wherever
the command runs from.

The report is deterministic byte for byte: sorted findings, sorted
budget rows, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, TextIO

from repro.analysis import checks
from repro.analysis.engine.concurrency import (
    check_atomicity,
    check_lock_discipline,
)
from repro.analysis.engine.excflow import check_error_escape
from repro.analysis.engine.hotpath import DEFAULT_LEDGER
from repro.analysis.engine.perflint import Engine
from repro.analysis.engine.typestate import check_typestate
from repro.analysis.reprolint import (
    PACKAGE_ROOT,
    REPO_ROOT,
    Diagnostic,
    ParsedModule,
    _iter_sources,
    _parse,
)


class Check(NamedTuple):
    """One row of the check table."""

    doc: str  # one line, for --list-checks
    budgeted: bool  # metered against the speed budget, not a hard failure
    #: the pass; ids that share one pass run it once
    run: Callable[[Engine], Iterable[Diagnostic]]


def _per_file(check: Callable[[ParsedModule], list[Diagnostic]]) -> Check:
    def run(engine: Engine) -> list[Diagnostic]:
        return [diag for module in engine.modules for diag in check(module)]

    return Check(check.__doc__.strip().splitlines()[0], False, run)


def _hot(doc: str) -> Check:
    return Check(doc, True, Engine.check_hot_functions)


#: every check id -> its doc, budgeted flag and pass. Pragmas, --check,
#: --list-checks and budget metering all read this table, and the
#: pipeline runs its passes in this order.
CHECKS: dict[str, Check] = {
    "wallclock": _per_file(checks.check_wallclock),
    "banned-import": _per_file(checks.check_banned_import),
    "layering": _per_file(checks.check_layering),
    "bare-except": _per_file(checks.check_bare_except),
    "error-boundary": _per_file(checks.check_error_boundary),
    "history-tap": _per_file(checks.check_history_tap),
    "perf-attribution": _per_file(checks.check_perf_attribution),
    "wait-tap": _per_file(checks.check_wait_tap),
    "trace-span-context": _per_file(checks.check_trace_span_context),
    "fault-seeded": _per_file(checks.check_fault_seeded),
    "missing-slots": Check(
        "Class instantiated on a hot path has no __slots__.",
        True,
        Engine.check_missing_slots,
    ),
    "hot-loop-alloc": _hot("Allocation inside a loop of a hot function."),
    "repeated-attr-lookup": _hot(
        "Attribute chain loaded 3+ times in a loop of a hot function."
    ),
    "dict-dispatch-miss": _hot(
        "getattr/hasattr or enum-name dispatch inside a hot loop."
    ),
    "try-in-hot-loop": _hot("try statement inside a loop of a hot function."),
    "interned-key-miss": _hot("Computed string dict key in a hot function."),
    "wallclock-indirect": Check(
        "Call that transitively reaches a wall-clock/entropy call.",
        False,
        Engine.check_wallclock_indirect,
    ),
    "set-iteration": Check(
        "Order-sensitive iteration over a value whose origin is a set.",
        False,
        Engine.check_set_iteration,
    ),
    "atomicity-across-yield": Check(
        "Read, yield, then write of a shared cell with no lock held.",
        False,
        lambda engine: check_atomicity(engine.flows),
    ),
    "lock-discipline": Check(
        "Lock leak, acquire after release, lock order or range gap.",
        False,
        lambda engine: check_lock_discipline(engine.flows),
    ),
    "typestate": Check(
        "Transaction lifecycle or Backend write-protocol violation.",
        False,
        lambda engine: check_typestate(engine.flows),
    ),
    "error-escape": Check(
        "Subsystem-private exception escapes across a package boundary.",
        False,
        lambda engine: check_error_escape(engine.table, engine.graph),
    ),
}

#: the committed speed budget the package itself is metered against
DEFAULT_BUDGET = REPO_ROOT / "benchmarks" / "speed_budget.toml"

#: minimum fraction of ledger entries that must still resolve against
#: the current symbol table
_STALENESS_RESOLVE_FRACTION = 0.75


def load_budget(path: Path) -> dict[str, int]:
    """Path-prefix -> allowed perflint finding count."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:  # Python < 3.11: the budget grammar is tiny
        return _parse_budget_text(text)
    data = tomllib.loads(text)
    out: dict[str, int] = {}
    for key in sorted(data):
        entry = data[key]
        if isinstance(entry, dict) and "max" in entry:
            out[key] = int(entry["max"])
    return out


def _parse_budget_text(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    section: Optional[str] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().strip('"')
        elif section is not None:
            key, _, value = line.partition("=")
            if key.strip() == "max":
                out[section] = int(value.split("#")[0].strip())
    return dict(sorted(out.items()))


def _budget_key(path: str, budget: dict[str, int]) -> str:
    """Longest budget prefix covering ``path``; '' means no allowance."""
    best = ""
    for key in sorted(budget):
        if path.startswith(key) and len(key) > len(best):
            best = key
    return best


def _staleness_warnings(
    engine: Engine, ledger_path: Optional[Path]
) -> list[str]:
    """Non-failing drift warnings: a stale ledger means a stale
    hot-path set, so the perf lints aim at yesterday's kernel."""
    out: list[str] = []
    if ledger_path is None or not Path(ledger_path).exists():
        return out
    try:
        data = json.loads(Path(ledger_path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return out
    functions = data.get("functions", [])
    if functions:
        resolved = sum(
            1
            for entry in functions
            if engine.table.function_at(
                str(entry.get("file", "")),
                str(entry.get("function", "")),
                entry.get("line"),
            )
            is not None
        )
        fraction = resolved / len(functions)
        if fraction < _STALENESS_RESOLVE_FRACTION:
            out.append(
                f"engine: warning: speed ledger is stale — only "
                f"{resolved}/{len(functions)} profiled functions still "
                "resolve against the tree (re-record with PYTHONPATH=src "
                "python benchmarks/profiles/record_ledger.py)"
            )
    return out


def _apply_pragmas(
    modules: list[ParsedModule], diagnostics: Iterable[Diagnostic]
) -> list[Diagnostic]:
    """The one suppression pass: drop findings a reasoned pragma covers,
    and report malformed pragmas and pragmas naming unknown checks."""
    by_path = {module.rel_path: module for module in modules}
    out = [
        diag
        for diag in diagnostics
        if diag.path not in by_path or not by_path[diag.path].suppressed(diag)
    ]
    known = ", ".join(sorted(CHECKS))
    for module in modules:
        out.extend(module.pragma_errors)
        for line, pragma in module.pragmas.items():
            for check in sorted(pragma.checks - CHECKS.keys()):
                out.append(
                    Diagnostic(
                        module.rel_path,
                        line,
                        0,
                        "pragma",
                        f"pragma disables unknown check {check!r} "
                        f"(known: {known})",
                    )
                )
    return sorted(set(out))


@dataclass
class Report:
    """One pipeline run, ready to render."""

    engine: Engine
    failures: list[Diagnostic]
    uncovered: list[Diagnostic]  # budgeted findings no budget key covers
    budget: list[tuple[str, int, int, str]]  # prefix, used, allowed, state
    warnings: list[str]


def analyse(
    root: Optional[Path] = None,
    budget_path: Optional[Path] = None,
    ledger_path: Optional[Path] = None,
    only: Optional[set[str]] = None,
) -> Report:
    """Run every check over ``root`` (default: the repro package).

    ``only`` filters the reported findings after the full run; the
    budget is still metered over every perf finding.
    """
    root = PACKAGE_ROOT if root is None else Path(root).resolve()
    if root == PACKAGE_ROOT:
        if budget_path is None and DEFAULT_BUDGET.exists():
            budget_path = DEFAULT_BUDGET
        if ledger_path is None:
            ledger_path = DEFAULT_LEDGER
    modules = [_parse(p, root) for p in _iter_sources(root)]
    engine = Engine.build(modules, ledger_path=ledger_path)
    passes = dict.fromkeys(check.run for check in CHECKS.values())
    findings = _apply_pragmas(
        modules, [diag for run in passes for diag in run(engine)]
    )
    budget = load_budget(Path(budget_path)) if budget_path else {}

    failures: list[Diagnostic] = []
    used: dict[str, list[Diagnostic]] = {key: [] for key in budget}
    uncovered: list[Diagnostic] = []
    for diag in findings:
        check = CHECKS.get(diag.check)
        if check is None or not check.budgeted:
            failures.append(diag)
        elif key := _budget_key(diag.path, budget):
            used[key].append(diag)
        else:
            uncovered.append(diag)
    cells: list[tuple[str, int, int, str]] = []
    for key in sorted(budget):
        allowed = budget[key]
        state = "ok" if len(used[key]) <= allowed else "OVER"
        cells.append((key, len(used[key]), allowed, state))
        if state == "OVER":
            failures.extend(used[key])
    failures.extend(uncovered)
    if only is not None:
        failures = [d for d in failures if d.check in only]
        uncovered = [d for d in uncovered if d.check in only]
    return Report(
        engine,
        sorted(failures),
        uncovered,
        cells,
        _staleness_warnings(engine, ledger_path),
    )


def run_engine(
    root: Optional[Path] = None,
    budget_path: Optional[Path] = None,
    ledger_path: Optional[Path] = None,
    out: Optional[TextIO] = None,
    report_format: str = "text",
    out_path: Optional[Path] = None,
    only: Optional[set[str]] = None,
) -> int:
    """Run the pipeline and print its report (``out`` defaults to
    stdout); returns the process exit code."""
    report = analyse(root, budget_path, ledger_path, only)
    engine, failures = report.engine, report.failures
    exit_code = 1 if failures else 0
    if report_format == "json":
        payload = {
            "findings": [asdict(d) for d in failures],
            "uncovered": [d.path for d in report.uncovered],
            "functions": len(engine.table.functions),
            "hot": len(engine.hot),
            "hot_source": engine.hot.source,
            "budget": [
                {
                    "prefix": key,
                    "used": used_n,
                    "allowed": allowed,
                    "state": state,
                }
                for key, used_n, allowed, state in report.budget
            ],
            "warnings": report.warnings,
            "exit_code": exit_code,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if out_path is not None:
            Path(out_path).write_text(text, encoding="utf-8")
        else:
            print(text, end="", file=out)
        return exit_code

    for diag in failures:
        print(diag.render(), file=out)
    for diag in report.uncovered:
        print(
            f"{diag.path}: no speed-budget entry covers this path "
            "(add one to benchmarks/speed_budget.toml or fix the finding)",
            file=out,
        )
    for line in report.warnings:
        print(line, file=out)
    print(
        f"engine: {len(engine.table.functions)} functions, "
        f"{len(engine.hot)} hot ({engine.hot.source})",
        file=out,
    )
    if report.budget:
        print("speed budget (used/allowed):", file=out)
        for key, used_n, allowed, state in report.budget:
            print(f"  {key:<24s} {used_n}/{allowed} {state}", file=out)
    if failures:
        print(
            f"engine: {len(failures)} violation(s) in "
            f"{len({d.path for d in failures})} file(s)",
            file=out,
        )
        return 1
    print("engine: 0 findings", file=out)
    return 0
