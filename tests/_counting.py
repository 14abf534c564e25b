"""Counted cost: Python ``line`` events executed inside named files.

Exact and the same on every machine, unlike wall time, so a scaling test
can assert that a per-operation cost is flat (or grows as expected) with
the size that drives it. Absolute counts vary by interpreter version:
assert ratios between two measurements, never a number.
"""

import sys
from typing import Callable


def lines_per_op(files: tuple[str, ...], op: Callable[[], int]) -> float:
    """Run ``op()``, which returns how many operations it performed, and
    return the lines executed per operation in files whose path ends
    with one of ``files`` (e.g. ``"service/pool.py"``)."""
    lines = 0

    def count_line(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.endswith(files):
            return count_line
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        ops = op()
    finally:
        sys.settrace(previous)
    return lines / ops
