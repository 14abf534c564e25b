"""Command line of the ladder benchmark.

One workload, as the benchmark driver runs it (``BENCHMARK.json``)::

    python3 benchmarks/ladder/run.py --workload crud --seed 7 --seconds 6 --trace 0

prints the metrics and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` it runs every workload, one child process each, one after
the other: ``--traced`` for the per-layer metrics, ``--check-repeat`` to
run everything twice and compare the two sets against the bounds.
"""

from __future__ import annotations

import sys
from time import perf_counter

_STARTED = perf_counter()

import argparse
import compileall
import json
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
# run as a script, this directory leads sys.path and its trace.py would
# shadow the standard library's; the package is imported by its full name
sys.path[:] = [entry for entry in sys.path if entry != str(HERE)]


def _bootstrap() -> float:
    """Make ``repro`` and this package importable; returns import seconds.

    Byte-compiling first is the benchmark's build step: it keeps the
    compile a fresh checkout pays once out of ``setup_s``.
    """
    for entry in (str(ROOT), str(SOURCE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    compileall.compile_dir(str(SOURCE / "repro"), quiet=2, workers=1)
    compileall.compile_dir(str(HERE), quiet=2, workers=1)
    start = perf_counter()
    import benchmarks.ladder.harness  # noqa: F401  (imports every layer)

    return perf_counter() - start


def run_one(args) -> int:
    """Child mode: one workload in this process."""
    import_s = _bootstrap()
    from benchmarks.ladder import harness

    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"ladder: unknown workload {args.workload!r}")
    if args.trace:
        result = harness.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = harness.run_end_to_end(
            args.workload, args.seed, args.seconds, import_s
        )
    result["manifest"]["process_s"] = perf_counter() - _STARTED
    harness.write_result(args.workload, bool(args.trace), result)
    harness.print_result(args.workload, result)
    return 0 if result["correct"] else 1


# -- all workloads ----------------------------------------------------------------


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(spec: dict, seed: int, seconds: float, trace: int) -> dict[str, dict]:
    """Every workload of ``BENCHMARK.json``, one child each, in order."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ],
            capture_output=True, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr)
            raise SystemExit(f"ladder: workload {workload} failed")
        results[workload] = json.loads(lines[-1])
        suffix = "_traced" if trace else ""
        full = json.loads(
            (ROOT / "benchmarks" / "out" / "ladder" / f"{workload}{suffix}.json")
            .read_text()
        )
        results[workload]["result_digest"] = full["result_digest"]
    return results


def check_repeat(spec: dict, seed: int, seconds: float) -> int:
    """Two sets of runs of the same code must agree: timings within each
    metric's bound, digests and every count exactly."""
    breaches = 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    timed = ("self_share", "trace_overhead_ratio", "unattributed_share")
    for trace in (0, 1):
        first = run_set(spec, seed, seconds, trace)
        second = run_set(spec, seed, seconds, trace)
        print(f"\n{'workload':14s} {'metric':44s} {'run 1':>14s} {'run 2':>14s} "
              f"{'diff':>8s} {'bound':>6s}")
        for workload, one in first.items():
            two = second[workload]
            if one["result_digest"] != two["result_digest"]:
                breaches += 1
                print(f"{workload:14s} result_digest differs between runs  BREACH")
            for name, entry in one["metrics"].items():
                a, b = entry["value"], two["metrics"][name]["value"]
                diff = abs(b - a) / a if a else float(a != b)
                if not trace:
                    bound, breach = f"{bounds[name]:.0%}", diff > bounds[name]
                elif entry["unit"] == "us" or name.endswith(timed):
                    continue  # per-layer timings are reported, not bounded
                else:
                    bound, breach = "exact", a != b
                if trace and not breach:
                    continue
                breaches += breach
                print(f"{workload:14s} {name:44s} {a:14.4f} {b:14.4f} "
                      f"{diff:8.2%} {bound:>6s}{'  BREACH' if breach else ''}")
    print(f"\ncheck-repeat: {breaches} breach(es)")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="about how long to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all workloads under the tracer (per-layer metrics)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run both sets twice and compare against the bounds")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        raise SystemExit(f"ladder: no program to measure under {SOURCE}")
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    spec = _spec()
    if args.check_repeat:
        return check_repeat(spec, args.seed, args.seconds)
    results = run_set(spec, args.seed, args.seconds, int(args.traced or args.trace))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
