"""``python -m repro.faults`` — run, sweep, replay and explore scenarios.

One command over the one scenario table (:data:`repro.faults.chaos.SCENARIOS`):
every run of the scenarios × fault mixes × perturbation modes × seeds
matrix is recorded and history-checked, and the availability /
tail-latency / injected-fault summary goes to ``BENCH_faults.json``.

::

    python -m repro.faults                          # default sweep
    python -m repro.faults --seeds 20 --mixes storage,network,chaos
    python -m repro.faults --scenarios ycsb --mixes none --seed-base 42 --seeds 1 --ops 50
    python -m repro.faults --scenarios commit --seeds 5 --replay
    python -m repro.faults --explore --scenarios isolation --mixes none \
        --modes none,delay --seeds 20 --out -
    python -m repro.faults --artifacts out/chaos    # dump failing runs

``--explore`` shrinks every violating run to a minimal reproducer (halve
the ops, then drop the mode) and prints its rerun command.

Exit status: 0 = every run clean (no checker violations, exact
accounting, converged recovery, byte-identical replay if requested),
1 = at least one run failed, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.check.explorer import MODES
from repro.faults.chaos import SCENARIOS, ChaosRun, replay_digest, shrink, sweep
from repro.faults.plan import FAULT_MIXES
from repro.obs.export import history_jsonl


def _default_out() -> str:
    base = os.environ.get("REPRO_BENCH_DIR", os.path.join("benchmarks", "out"))
    return os.path.join(base, "BENCH_faults.json")


def _write_artifacts(directory: str, failed: list[ChaosRun]) -> None:
    """One fault-plan JSON + one history JSONL per failing run."""
    os.makedirs(directory, exist_ok=True)
    for run in failed:
        stem = f"{run.cell.replace('/', '-')}-seed{run.seed}"
        plan_path = os.path.join(directory, f"{stem}.faultplan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "result": run.to_dict(),
                    "fault_log": [
                        {"site": site, "detail": detail}
                        for site, detail in run.fault_log
                    ],
                },
                handle,
                sort_keys=True,
                indent=2,
            )
        history_path = os.path.join(directory, f"{stem}.history.jsonl")
        with open(history_path, "w", encoding="utf-8") as handle:
            handle.write(history_jsonl(run.histories))


def _names(spec: str) -> list[str]:
    return [name.strip() for name in spec.split(",") if name.strip()]


def main(argv=None) -> int:
    #: the real-system entries; the anomaly-* stores must violate
    real = ",".join(
        sorted(name for name in SCENARIOS if not name.startswith("anomaly-"))
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="run, sweep, replay and explore checked scenarios: "
        "scenarios x fault mixes x modes x seeds, with "
        "availability/latency summaries",
    )
    parser.add_argument(
        "--scenarios",
        default=real,
        help=f"comma-separated scenarios (default: {real})",
    )
    parser.add_argument(
        "--mixes",
        default="storage,network,chaos",
        help="comma-separated fault mixes (default: storage,network,chaos)",
    )
    parser.add_argument(
        "--modes",
        default="none",
        help="comma-separated schedule perturbation modes "
        f"{'/'.join(MODES)} (default: none)",
    )
    parser.add_argument(
        "--seeds", type=int, default=20, help="seeds per cell (default: 20)"
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, help="first seed (default: 0)"
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="operations per run override"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="summary JSON path (default: benchmarks/out/BENCH_faults.json; "
        "'-' skips writing)",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        help="directory for fault-plan + history artifacts of failing runs",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="also assert same-seed runs are byte-identical, one replay "
        "per scenario x mix x mode",
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="shrink every violating run to a minimal reproducer",
    )
    args = parser.parse_args(argv)

    scenarios = _names(args.scenarios)
    mixes = _names(args.mixes)
    modes = _names(args.modes)
    for kind, names, known in (
        ("scenario", scenarios, SCENARIOS),
        ("mix", mixes, FAULT_MIXES),
        ("mode", modes, MODES),
    ):
        for name in names:
            if name not in known:
                print(
                    f"unknown {kind} {name!r}; pick from {sorted(known)}",
                    file=sys.stderr,
                )
                return 2
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))

    runs, summary = sweep(scenarios, seeds, mixes, args.ops, tuple(modes))
    for key, cell in summary["cells"].items():
        print(
            f"{key}: availability={cell['availability']:.4f} "
            f"p50={cell['latency_p50_us']}us p99={cell['latency_p99_us']}us "
            f"injected={cell['total_injected']} "
            f"violations={cell['violations']}"
        )
    failed = [run for run in runs if not run.ok]
    print(
        f"{len(runs)} runs: {summary['violations']} violation(s), "
        f"{summary['exactly_once_failures']} exactly-once failure(s), "
        f"{summary['convergence_failures']} convergence failure(s)"
    )
    for run in failed:
        why = []
        if run.violations:
            why.append(f"{len(run.violations)} violation(s)")
        if not run.exactly_once:
            why.append("exactly-once accounting broken")
        if not run.converged:
            why.append("recovery did not converge")
        print(f"FAILED {run.cell} seed={run.seed}: " + "; ".join(why))
        for violation in run.violations:
            print(f"  {violation}")
    if args.explore:
        for run in failed:
            if run.violations:
                reproducer = shrink(run)
                checks = ", ".join(sorted(set(reproducer.violations)))
                print(f"reproducer {checks}: {reproducer.command()}")
    if args.artifacts and failed:
        _write_artifacts(args.artifacts, failed)
        print(f"artifacts for {len(failed)} failing run(s): {args.artifacts}")

    replay_failures = 0
    if args.replay:
        from repro.errors import SanitizerViolation

        cells = {run.cell: run for run in runs}
        for cell, run in cells.items():
            try:
                replay_digest(
                    run.scenario, seeds[0], run.mix, args.ops, mode=run.mode
                )
            except SanitizerViolation as exc:
                replay_failures += 1
                print(
                    f"REPLAY DIVERGED {cell} seed={seeds[0]}: {exc}",
                    file=sys.stderr,
                )
        if not replay_failures:
            print(f"replay: {len(cells)} cell(s) byte-identical")

    out = args.out if args.out is not None else _default_out()
    if out != "-":
        from repro.obs.bench import bench_payload, metric

        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        summary["replay_failures"] = replay_failures
        # the unified schema every BENCH_*.json shares (repro.obs.bench):
        # the sweep's hard verdicts are exact metrics a reader can diff,
        # and the pooled verification SLO block rides along
        payload = bench_payload(
            name="faults",
            metrics={
                "runs": metric(len(runs), "count", kind="exact"),
                "violations": metric(
                    summary["violations"], "count", kind="exact"
                ),
                "exactly_once_failures": metric(
                    summary["exactly_once_failures"], "count", kind="exact"
                ),
                "convergence_failures": metric(
                    summary["convergence_failures"], "count", kind="exact"
                ),
                "replay_failures": metric(
                    replay_failures, "count", kind="exact"
                ),
            },
            slos=summary["slo"],
            raw=summary,
        )
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"summary written to {out}")
    return 1 if failed or replay_failures else 0


if __name__ == "__main__":
    sys.exit(main())
