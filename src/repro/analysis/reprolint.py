"""reprolint: the repo-specific static analyser's front end.

``python -m repro.analysis`` parses every ``*.py`` file under the
``repro`` package root once and runs the whole pipeline over it
(:mod:`repro.analysis.engine.driver`): the per-file checks
(:mod:`repro.analysis.checks`) and the engine passes on the project-wide
IR. Checks yield :class:`Diagnostic` records with precise
``file:line:col`` positions; one pass filters them through inline
suppression pragmas and one report renders the survivors.

Suppression pragma syntax (the reason string is mandatory)::

    risky_call()  # reprolint: disable=wallclock -- bridging real time at the sim boundary

A pragma on a comment-only line suppresses the *next* line, so long
statements can carry their justification above them. A pragma without a
reason, or naming an unknown check, is itself reported.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+?)\s*(?:--\s*(.*\S))?\s*$"
)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding, anchored to a source position."""

    path: str  # path relative to the linted root (posix separators)
    line: int
    col: int
    check: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: check: message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.check}: {self.message}"


@dataclass(frozen=True)
class _Pragma:
    checks: frozenset[str]
    reason: Optional[str]
    own_line: bool  # the comment is the only thing on its line


class ParsedModule:
    """One source file, parsed and annotated for the checks."""

    def __init__(self, abs_path: Path, rel_path: str, source: str):
        self.abs_path = abs_path
        self.rel_path = rel_path  # e.g. "spanner/locks.py"
        self.source = source
        self.tree = ast.parse(source, filename=str(abs_path))
        # first path segment is the subsystem; top-level modules (errors.py,
        # __init__.py) are their own one-module "package"
        parts = rel_path.split("/")
        self.package = parts[0][:-3] if len(parts) == 1 else parts[0]
        self.pragmas: dict[int, _Pragma] = {}
        self.pragma_errors: list[Diagnostic] = []
        self._collect_pragmas()

    def in_subtree(self, *prefixes: str) -> bool:
        """Whether this module lives under any of the given rel prefixes."""
        return any(self.rel_path.startswith(p) for p in prefixes)

    # -- pragmas ----------------------------------------------------------

    def _collect_pragmas(self) -> None:
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except tokenize.TokenError:  # unterminated constructs: parse caught it
            return
        code_lines: set[int] = set()
        comments: list[tuple[int, str]] = []
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                for line in range(tok.start[0], tok.end[0] + 1):
                    code_lines.add(line)
        for line, text in comments:
            if "reprolint" not in text:
                continue
            match = _PRAGMA_RE.search(text)
            if match is None:
                self.pragma_errors.append(
                    Diagnostic(
                        self.rel_path,
                        line,
                        0,
                        "pragma",
                        "malformed reprolint pragma; expected "
                        "'# reprolint: disable=<check> -- <reason>'",
                    )
                )
                continue
            checks = frozenset(
                c.strip() for c in match.group(1).split(",") if c.strip()
            )
            reason = match.group(2)
            if not reason:
                self.pragma_errors.append(
                    Diagnostic(
                        self.rel_path,
                        line,
                        0,
                        "pragma",
                        "reprolint pragma requires a reason: "
                        "'# reprolint: disable=<check> -- <why this is safe>'",
                    )
                )
                continue
            self.pragmas[line] = _Pragma(checks, reason, line not in code_lines)

    def suppressed(self, diag: Diagnostic) -> bool:
        """Whether an inline pragma covers this diagnostic."""
        pragma = self.pragmas.get(diag.line)
        if pragma is not None and diag.check in pragma.checks:
            return True
        above = self.pragmas.get(diag.line - 1)
        return above is not None and above.own_line and diag.check in above.checks


# -- tree loading ------------------------------------------------------------

#: the ``repro`` package this module belongs to, and the repository
#: holding it (where the committed speed budget and ledger live)
PACKAGE_ROOT = Path(__file__).resolve().parents[1]
REPO_ROOT = PACKAGE_ROOT.parents[1]


def _iter_sources(root: Path) -> Iterable[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(abs_path: Path, root: Path) -> ParsedModule:
    rel = abs_path.relative_to(root).as_posix()
    return ParsedModule(abs_path, rel, abs_path.read_text(encoding="utf-8"))


def lint_tree(
    root: Optional[Path] = None, only: Optional[set[str]] = None
) -> list[Diagnostic]:
    """Every failing finding under ``root`` (default: the repro package)."""
    from repro.analysis.engine.driver import analyse

    return analyse(root, only=only).failures


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: ``python -m repro.analysis``."""
    from repro.analysis.engine.driver import CHECKS, run_engine

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: determinism, layering, error-boundary, "
        "trace-hygiene, hot-path perf and concurrency checks for the "
        "Firestore reproduction, in one pipeline.",
    )
    parser.add_argument(
        "--root",
        help="package root to analyse (default: the repro package, "
        "metered against the committed speed budget and ledger)",
    )
    parser.add_argument(
        "--check",
        action="append",
        dest="checks",
        metavar="ID",
        help="report only this check's findings (repeatable)",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="list check ids and exit"
    )
    parser.add_argument(
        "--format",
        dest="report_format",
        choices=("text", "json"),
        default="text",
        help="report format: text (default) or a json report",
    )
    parser.add_argument(
        "--out",
        dest="out_path",
        help="write the json report here instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        for check_id, check in sorted(CHECKS.items()):
            print(f"{check_id:22s} {check.doc}")
        return 0

    only = set(args.checks) if args.checks else None
    if only is not None and only - set(CHECKS):
        bad = ", ".join(sorted(only - set(CHECKS)))
        print(f"unknown check(s): {bad}", file=sys.stderr)
        return 2
    return run_engine(
        root=Path(args.root) if args.root else None,
        report_format=args.report_format,
        out_path=Path(args.out_path) if args.out_path else None,
        only=only,
    )
