"""CLI: run the perf gate, diff against baselines, render the dashboard.

Usage::

    python -m repro.obs.bench                         # run, write artifacts
    python -m repro.obs.bench --against benchmarks/baselines
    python -m repro.obs.bench --update-baselines      # re-record baselines
    python -m repro.obs.bench --canary                # prove the gate trips
    python -m repro.obs.bench --cells gate_commit,gate_chaos

Exit codes: 0 clean, 1 regression(s) found, 2 usage error. ``--canary``
inverts the verdict: the canary run *must* regress (that is the point),
so finding regressions exits 0 and a clean canary exits 1.

Artifacts land in ``benchmarks/out`` (override with ``--out`` or
``REPRO_BENCH_DIR``): ``BENCH_gate_*.json`` payloads, the collapsed
flamegraph stacks + SVG for the YCSB cell, the critical-path
``CRITPATH_*.json`` + ``CRITPATH_*.svg`` for the tail cell, and
``dashboard.html``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.obs.bench import (
    Regression,
    compare_suites,
    load_bench_dir,
    write_payload,
)
from repro.obs.bench.dashboard import render_dashboard
from repro.obs.bench.gate import CANARY_SITE, GATE_CELLS, GATE_SEED


def _default_out() -> pathlib.Path:
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path("benchmarks") / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="run the perf gate and diff it against baselines",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="artifact directory (default: benchmarks/out or $REPRO_BENCH_DIR)",
    )
    parser.add_argument(
        "--against",
        type=pathlib.Path,
        default=None,
        help="baseline directory to diff the fresh run against",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="write the fresh payloads into the baseline directory "
        "(default benchmarks/baselines, or the --against path)",
    )
    parser.add_argument(
        "--canary",
        action="store_true",
        help=f"inject {CANARY_SITE} at rate 1.0 into the functional-commit "
        "cell; the run must then FAIL the comparison (exit 0 iff it does)",
    )
    parser.add_argument(
        "--cells",
        default="",
        help="comma-separated subset of cells to run "
        f"(default: all of {', '.join(GATE_CELLS)})",
    )
    parser.add_argument(
        "--seed", type=int, default=GATE_SEED, help="gate seed (default 42)"
    )
    parser.add_argument(
        "--dashboard",
        type=pathlib.Path,
        default=None,
        help="dashboard output path (default <out>/dashboard.html)",
    )
    parser.add_argument(
        "--record-speed-ledger",
        nargs="?",
        const="benchmarks/profiles/speed_ledger.json",
        default=None,
        metavar="PATH",
        help="profile the fixed speed run under cProfile and write the "
        "hot-path ledger consumed by 'python -m repro.analysis' "
        "(default path: benchmarks/profiles/speed_ledger.json)",
    )
    args = parser.parse_args(argv)

    if args.record_speed_ledger is not None:
        from repro.obs.bench.gate import record_speed_ledger

        ledger = record_speed_ledger(args.record_speed_ledger, seed=args.seed)
        hot = [
            f for f in ledger["functions"] if f["self_fraction"] >= 0.01
        ]
        print(
            f"[gate] wrote {args.record_speed_ledger} "
            f"({len(ledger['functions'])} functions, {len(hot)} >=1% self)"
        )
        return 0

    out_dir = args.out if args.out is not None else _default_out()
    out_dir.mkdir(parents=True, exist_ok=True)

    selected = dict(GATE_CELLS)
    if args.cells:
        wanted = [c.strip() for c in args.cells.split(",") if c.strip()]
        unknown = sorted(set(wanted) - set(GATE_CELLS))
        if unknown:
            parser.error(
                f"unknown cells: {', '.join(unknown)} "
                f"(have {', '.join(GATE_CELLS)})"
            )
        selected = {name: GATE_CELLS[name] for name in wanted}

    canary = CANARY_SITE if args.canary else None
    payloads: dict[str, dict] = {}
    artifacts: dict[str, dict] = {}
    for name, builder in selected.items():
        print(f"[gate] running {name} ...", flush=True)
        if name == "gate_commit":
            payload, extras = builder(seed=args.seed, canary=canary)
        elif name == "gate_ycsb":
            payload, extras = builder(seed=args.seed)
        else:
            payload, extras = builder()
        payloads[name] = payload
        if extras:
            artifacts[name] = extras
        path = write_payload(out_dir, payload)
        print(f"[gate]   wrote {path}")

    flame_svg = None
    ycsb_art = artifacts.get("gate_ycsb")
    if ycsb_art:
        (out_dir / "FLAME_gate_ycsb.txt").write_text(
            ycsb_art["folded"], encoding="utf-8"
        )
        (out_dir / "FLAME_gate_ycsb.svg").write_text(
            ycsb_art["flamegraph_svg"], encoding="utf-8"
        )
        flame_svg = ycsb_art["flamegraph_svg"]
        print(f"[gate]   wrote {out_dir / 'FLAME_gate_ycsb.svg'}")
        print(ycsb_art["profile_table"])

    # the tail cell's artifacts are keyed by their output filename
    # (CRITPATH_<scenario>.json / .svg) — write them through verbatim
    tail_art = artifacts.get("gate_tail")
    if tail_art:
        for filename, text in sorted(tail_art.items()):
            (out_dir / filename).write_text(text, encoding="utf-8")
            print(f"[gate]   wrote {out_dir / filename}")

    baseline_dir = args.against
    if baseline_dir is None and args.update_baselines:
        baseline_dir = pathlib.Path("benchmarks") / "baselines"

    regressions: list[Regression] = []
    baselines: dict[str, dict] = {}
    if baseline_dir is not None and not args.update_baselines:
        baselines = load_bench_dir(baseline_dir)
        if not baselines:
            print(
                f"[gate] no baselines under {baseline_dir}; "
                "run --update-baselines first",
                file=sys.stderr,
            )
            return 2
        # only judge the cells that actually ran this invocation
        baselines = {k: v for k, v in baselines.items() if k in payloads}
        regressions = compare_suites(payloads, baselines)

    if args.update_baselines:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for payload in payloads.values():
            path = write_payload(baseline_dir, payload)
            print(f"[gate] baseline {path}")

    dashboard_path = (
        args.dashboard
        if args.dashboard is not None
        else out_dir / "dashboard.html"
    )
    dashboard_path.write_text(
        render_dashboard(
            payloads,
            baselines=baselines,
            regressions=regressions,
            flamegraph=flame_svg,
            title="repro perf gate"
            + (" — CANARY (expected to fail)" if args.canary else ""),
        ),
        encoding="utf-8",
    )
    print(f"[gate] dashboard {dashboard_path}")

    if regressions:
        print(f"\n[gate] {len(regressions)} regression(s):", file=sys.stderr)
        for reg in regressions:
            print(f"  FAIL {reg}", file=sys.stderr)
    elif baselines:
        print("[gate] no regressions against baselines")

    if args.canary and baselines:
        if regressions:
            print("[gate] canary correctly tripped the gate")
            return 0
        print(
            "[gate] CANARY DID NOT TRIP THE GATE — the gate is broken",
            file=sys.stderr,
        )
        return 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
