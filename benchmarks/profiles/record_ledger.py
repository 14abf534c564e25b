"""Re-record the hot-path ledger ``python -m repro.analysis`` reads.

Profiles the fixed YCSB kernel run (workload A, 2000 QPS, 25 simulated
seconds, seed 42; 200,505 events) under cProfile and writes
``speed_ledger.json`` next to this script::

    PYTHONPATH=src python benchmarks/profiles/record_ledger.py

The ledger is committed so lint output depends only on source plus one
reviewed JSON file; re-record it when the hot profile shifts.
"""

from __future__ import annotations

import pathlib

LEDGER = pathlib.Path(__file__).resolve().parent / "speed_ledger.json"


def record_speed_ledger(out_path, seed: int = 42) -> dict:
    """Profile the fixed speed run and write the hot-path ledger.

    The ledger is what ``python -m repro.analysis`` seeds its
    hot-path set from: every project function with its fraction of
    cProfile self time on the fixed kernel run. It is *committed*
    (``benchmarks/profiles/speed_ledger.json``) so lint output is
    deterministic and reviewable — re-record it when the hot profile
    shifts, and the diff shows up in review.
    """
    import cProfile
    import json

    import repro
    from repro.workloads import YcsbConfig, YcsbRunner

    package_root = pathlib.Path(repro.__file__).resolve().parent

    def run() -> None:
        YcsbRunner(
            YcsbConfig(
                workload="A",
                target_qps=2000,
                duration_s=25,
                measure_last_s=10,
                seed=seed,
            )
        ).run()

    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    entries = profile.getstats()
    total_self = sum(entry.inlinetime for entry in entries) or 1.0
    functions = []
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # builtins
            continue
        try:
            rel = (
                pathlib.Path(code.co_filename)
                .resolve()
                .relative_to(package_root)
                .as_posix()
            )
        except ValueError:
            continue
        fraction = entry.inlinetime / total_self
        if fraction < 0.001:
            continue
        functions.append(
            {
                "file": rel,
                "function": code.co_name,
                "qualname": getattr(code, "co_qualname", code.co_name),
                "line": code.co_firstlineno,
                "self_fraction": round(fraction, 6),
                "self_s": round(entry.inlinetime, 6),
                "calls": entry.callcount,
            }
        )
    functions.sort(
        key=lambda f: (-f["self_fraction"], f["file"], f["function"])
    )
    ledger = {
        "run": "gate_speed kernel run (YCSB A, 2000 QPS, 25 sim-s, seed "
        f"{seed})",
        "note": "committed input for repro.analysis hot paths; "
        "re-record with: PYTHONPATH=src python "
        "benchmarks/profiles/record_ledger.py",
        "functions": functions,
    }
    out = pathlib.Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return ledger


if __name__ == "__main__":
    written = record_speed_ledger(LEDGER)
    hot = [f for f in written["functions"] if f["self_fraction"] >= 0.01]
    print(
        f"wrote {LEDGER} ({len(written['functions'])} functions, "
        f"{len(hot)} >=1% self)"
    )
