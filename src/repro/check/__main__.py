"""``python -m repro.check --check-log FILE`` — judge a recorded history.

Reads a history JSONL log (as ``python -m repro.faults --artifacts DIR``
writes one per failing run) and runs the full checker over it. Running,
sweeping and exploring scenarios is ``python -m repro.faults``.

Exit status: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.checker import check_history
from repro.check.history import HistoryRecorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="check a recorded transactional history offline",
    )
    parser.add_argument(
        "--check-log",
        required=True,
        metavar="FILE",
        help="the history JSONL log to check",
    )
    args = parser.parse_args(argv)
    with open(args.check_log, "r", encoding="utf-8") as handle:
        events = HistoryRecorder.parse_jsonl(handle.read())
    violations = check_history(events)
    print(
        f"{args.check_log}: {len(events)} events, "
        f"{len(violations)} violation(s)"
    )
    for violation in violations:
        line = str(violation)
        if violation.events:
            line += f"  (events {list(violation.events)})"
        if violation.spans:
            line += f"  (spans {[hex(span) for span in violation.spans]})"
        print(line)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
