"""The static-analysis engine: project-wide IR under the lint checks.

Where :mod:`repro.analysis.checks` is a set of per-file AST passes, the
engine builds whole-program structure and analyses on top of it, in
layers — each consumed by the next:

``symbols``
    Project-wide symbol table: every function, method and class in the
    package, keyed by a stable qualified name (``rel/path.py::Qual.name``).

``callgraph``
    The call graph over those symbols. Calls through ``self`` resolve to
    the enclosing class (then its duck-typed peers); bare attribute calls
    resolve duck-typed — *every* project function of that name — so
    dynamic dispatch (e.g. ``fault_plan`` hooks) widens the graph instead
    of escaping it. External callees (stdlib, builtins) are kept by
    dotted name for the taint and allocation checks.

``cfg``
    Per-function control-flow graphs of basic blocks.

``dataflow``
    Reaching definitions and liveness over a CFG, via deterministic
    worklists. Powers the origin resolution that fixed the set-iteration
    false positives.

``hotpath``
    The hot-path overlay: seeded from a committed profiler ledger
    (functions ≥1% wall-clock self time on the fixed speed run),
    transitively closed over the call graph.

``perflint``
    Hot-path-aware performance checks plus the interprocedural
    (call-graph-propagated) version of the determinism taint.

``driver``
    The one pipeline ``python -m repro.analysis`` runs: the check table
    (per-file checks and engine passes alike), the pragma pass, the
    speed budget and the report.

Everything here is deterministic by construction: modules are visited in
sorted path order, worklists are sorted, and no set is ever iterated
directly — the engine must produce byte-identical output across runs and
must pass its own lint.
"""

from repro.analysis.engine.callgraph import CallGraph
from repro.analysis.engine.cfg import build_cfg
from repro.analysis.engine.dataflow import liveness, reaching_definitions
from repro.analysis.engine.hotpath import HotPaths
from repro.analysis.engine.symbols import SymbolTable

__all__ = [
    "CallGraph",
    "HotPaths",
    "SymbolTable",
    "build_cfg",
    "liveness",
    "reaching_definitions",
]
