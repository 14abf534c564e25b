"""``python -m repro.check`` — run / check / explore recorded histories.

Default (no arguments): run the ``ycsb`` acceptance scenario with
recording on and check the resulting history — exit 0 iff it is clean.

Modes:

- ``--check-log FILE``: check an existing history JSONL log offline.
- ``--scenario NAME [--seed N --mode M --ops K]``: one recorded,
  checked run; ``--log-out FILE`` writes its history log.
- ``--explore --scenario NAME --seeds N --modes none,delay``: sweep
  seeds × perturbation modes, shrinking every violation found to a
  minimal reproducer.

Exit status: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.checker import Violation, check_history
from repro.check.explorer import MODES, explore
from repro.check.history import HistoryRecorder
from repro.check.scenarios import SCENARIOS, run_scenario
from repro.obs.export import history_jsonl


def _print_violations(violations: list[Violation]) -> None:
    for violation in violations:
        line = str(violation)
        if violation.events:
            line += f"  (events {list(violation.events)})"
        if violation.spans:
            line += f"  (spans {[hex(span) for span in violation.spans]})"
        print(line)


def _write_log(path: str, histories: list[list[dict]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(history_jsonl(histories))


def _cmd_check_log(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        events = HistoryRecorder.parse_jsonl(handle.read())
    violations = check_history(events)
    print(f"{path}: {len(events)} events, {len(violations)} violation(s)")
    _print_violations(violations)
    return 1 if violations else 0


def _cmd_run(args) -> int:
    result = run_scenario(args.scenario, args.seed, args.mode, args.ops)
    print(
        f"scenario {result.scenario!r} seed={result.seed} "
        f"mode={result.mode} ops={result.ops}: "
        f"{len(result.histories)} history(ies), "
        f"{result.event_count} events, "
        f"{len(result.violations)} violation(s)"
    )
    _print_violations(result.violations)
    if args.log_out:
        _write_log(args.log_out, result.histories)
        print(f"history log written to {args.log_out}")
    return 1 if result.violations else 0


def _cmd_explore(args) -> int:
    modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
    for mode in modes:
        if mode not in MODES:
            print(
                f"unknown mode {mode!r}; pick from {MODES}", file=sys.stderr
            )
            return 2
    report = explore(
        args.scenario, range(args.seeds), modes, ops=args.ops
    )
    print(
        f"explored {report.runs} runs of {args.scenario!r} "
        f"({args.seeds} seeds x {modes}): {report.clean} clean, "
        f"{len(report.reproducers)} violating"
    )
    for reproducer in report.reproducers:
        checks = ", ".join(sorted(set(reproducer.violations)))
        print(f"  {checks}: {reproducer.command()}")
    if report.reproducers and args.log_out:
        first = report.reproducers[0]
        rerun = run_scenario(first.scenario, first.seed, first.mode, first.ops)
        _write_log(args.log_out, rerun.histories)
        print(f"first reproducer's history written to {args.log_out}")
    return 1 if report.found_violation else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="transactional history checker + schedule explorer",
    )
    parser.add_argument(
        "--scenario",
        default="ycsb",
        choices=sorted(SCENARIOS),
        help="scenario to run (default: the ycsb acceptance run)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--mode",
        default="none",
        choices=MODES,
        help="schedule perturbation for a single run",
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="scenario operation count"
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="sweep seeds x modes instead of a single run",
    )
    parser.add_argument(
        "--seeds", type=int, default=20, help="how many seeds to sweep"
    )
    parser.add_argument(
        "--modes",
        default="none,flip",
        help="comma-separated perturbation modes for --explore",
    )
    parser.add_argument(
        "--log-out",
        default=None,
        help="write the (first violating) history log here",
    )
    parser.add_argument(
        "--check-log",
        default=None,
        metavar="FILE",
        help="check an existing history JSONL log and exit",
    )
    args = parser.parse_args(argv)
    if args.check_log:
        return _cmd_check_log(args.check_log)
    if args.explore:
        return _cmd_explore(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
