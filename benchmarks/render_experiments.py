"""Regenerate the EXPERIMENTS.md measurement tables from BENCH_*.json.

The prose in EXPERIMENTS.md is hand-written; the *numbers* are benchmark
output. This script re-renders every unified-schema payload (see
:mod:`repro.obs.bench`) as a markdown table so the tables can be
refreshed from a benchmark run without retyping::

    PYTHONPATH=src python benchmarks/render_experiments.py             # stdout
    PYTHONPATH=src python benchmarks/render_experiments.py --dir "$REPRO_BENCH_DIR"
    PYTHONPATH=src python benchmarks/render_experiments.py --write EXPERIMENTS.tables.md

Pre-schema BENCH files (no ``schema_version``) are skipped with a note.
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def render_payload(payload: dict) -> str:
    """One payload -> a markdown section with its metric table."""
    name = payload.get("name", "?")
    figure = payload.get("figure") or ""
    title = f"## {name}" + (f" ({figure})" if figure else "")
    lines = [title, ""]
    metrics = payload.get("metrics", {})
    if metrics:
        lines.append("| metric | value | unit | kind |")
        lines.append("|---|---:|---|---|")
        for key in sorted(metrics):
            entry = metrics[key]
            lines.append(
                f"| {key} | {entry.get('value')} | {entry.get('unit', '')} "
                f"| {entry.get('kind', '')} |"
            )
        lines.append("")
    slos = payload.get("slos", {})
    if slos:
        lines.append("| SLO | target | observed | verdict |")
        lines.append("|---|---:|---:|---|")
        for key in sorted(slos):
            verdict = slos[key]
            lines.append(
                f"| {key} | {verdict.get('target')} "
                f"| {verdict.get('observed')} "
                f"| {'pass' if verdict.get('ok') else 'FAIL'} |"
            )
        lines.append("")
    return "\n".join(lines)


def render_dir(directory: pathlib.Path) -> str:
    from repro.obs.bench import load_bench_dir

    payloads = load_bench_dir(directory)
    if not payloads:
        return (
            f"no unified-schema BENCH_*.json under {directory} — run "
            "`pytest benchmarks/` or `python -m repro.faults` first\n"
        )
    header = [
        "# Benchmark tables (generated)",
        "",
        f"Rendered from `{directory}` by `benchmarks/render_experiments.py`.",
        "Regenerate after any benchmark run; do not edit by hand.",
        "",
    ]
    sections = [render_payload(payloads[name]) for name in sorted(payloads)]
    return "\n".join(header) + "\n" + "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render BENCH_*.json payloads as markdown tables"
    )
    parser.add_argument(
        "--dir",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks") / "out",
        help="directory of BENCH_*.json files (default benchmarks/out)",
    )
    parser.add_argument(
        "--write",
        type=pathlib.Path,
        default=None,
        help="write the rendered markdown here instead of stdout",
    )
    args = parser.parse_args(argv)
    text = render_dir(args.dir)
    if args.write is not None:
        args.write.write_text(text, encoding="utf-8")
        print(f"wrote {args.write}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
