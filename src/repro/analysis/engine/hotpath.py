"""The hot-path overlay: which functions the speed run actually burns.

Seeds come from a *committed* profiler ledger
(``benchmarks/profiles/speed_ledger.json``, written by
``python -m repro.obs.bench --record-speed-ledger``): every project
function cProfile attributed at least :data:`HOT_SELF_FRACTION` of
wall-clock self time on the fixed 200k-event kernel run. The set is then
transitively closed over the call graph — anything a hot function calls
runs per-event too, even if its own self time hides under the threshold.

Committing the ledger (rather than profiling at lint time) keeps the
engine deterministic and fast: lint output depends only on source plus
one reviewed JSON file, never on the machine running it. When the hot
profile shifts, re-record the ledger and the diff shows up in review.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.analysis.engine.callgraph import CallGraph
from repro.analysis.engine.symbols import SymbolTable
from repro.analysis.reprolint import REPO_ROOT

#: a function is a hot seed at >= this fraction of profiled self time
HOT_SELF_FRACTION = 0.01

#: the committed ledger the package itself is analysed against
DEFAULT_LEDGER = REPO_ROOT / "benchmarks" / "profiles" / "speed_ledger.json"


class HotPaths:
    """Hot function set + the evidence that made each function hot."""

    def __init__(self) -> None:
        #: qualname -> human evidence string ("12.4% self on gate_speed"
        #: for seeds, "called from <seed>" for closure members)
        self.evidence: dict[str, str] = {}
        #: description of the ledger the seeds came from
        self.source: str = "no ledger"

    def __contains__(self, qualname: str) -> bool:
        return qualname in self.evidence

    def __len__(self) -> int:
        return len(self.evidence)

    def why(self, qualname: str) -> str:
        return self.evidence.get(qualname, "")

    @classmethod
    def from_ledger(
        cls,
        ledger_path: Optional[Path],
        table: SymbolTable,
        graph: CallGraph,
        threshold: float = HOT_SELF_FRACTION,
    ) -> "HotPaths":
        """Load seeds from the ledger file and close over the graph.

        A missing ledger yields an *empty* hot set (perflint then has
        nothing to flag) rather than an error: the budget check still
        runs the non-hot-path checks, and CI commits the ledger anyway.
        """
        hot = cls()
        if ledger_path is None or not Path(ledger_path).exists():
            return hot
        data = json.loads(Path(ledger_path).read_text(encoding="utf-8"))
        run_name = data.get("run", "speed run")
        # repo-relative when possible, so reports match across checkouts
        shown = Path(ledger_path)
        if shown.is_relative_to(REPO_ROOT):
            shown = shown.relative_to(REPO_ROOT)
        hot.source = f"{run_name} ledger {shown.as_posix()}"
        seeds: list[str] = []
        for entry in data.get("functions", []):
            fraction = float(entry.get("self_fraction", 0.0))
            if fraction < threshold:
                continue
            info = table.function_at(
                entry.get("file", ""),
                entry.get("function", ""),
                entry.get("line"),
            )
            if info is None:
                continue
            evidence = (
                f"{fraction * 100:.1f}% self time on {run_name}"
            )
            if info.qualname not in hot.evidence:
                hot.evidence[info.qualname] = evidence
                seeds.append(info.qualname)
        # transitive closure over callees: a function invoked from a hot
        # function runs per event no matter what its own self time says
        worklist = sorted(seeds)
        while worklist:
            current = worklist.pop(0)
            for callee in graph.callees.get(current, ()):
                if callee in hot.evidence:
                    continue
                hot.evidence[callee] = f"called from hot {current}"
                worklist.append(callee)
        return hot
