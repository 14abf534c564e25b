"""Static analysis and dynamic sanitizers for the reproduction.

Two guardrail layers keep the stack honest as it grows:

- **reprolint** (``python -m repro.analysis``): a repo-specific static
  analyser over the AST, import graph and call graph of ``src/repro``,
  run as one pipeline. It enforces determinism (no wall-clock/entropy
  outside the ``sim`` core, directly or through helpers, no unordered
  set iteration), architecture layering (the sanctioned import contract
  between subsystems — e.g. ``realtime`` must never import ``client``),
  error-boundary discipline (only ``repro.errors`` exceptions cross
  subsystems, no bare ``except``), trace hygiene (spans opened only via
  context manager outside the serving sim), hot-path performance
  against the speed budget, and 2PL/transaction discipline.

- **sanitizers** (``REPRO_SANITIZE=1`` or ``pytest --sanitize``):
  always-on dynamic checkers wrapped around the live Spanner layer — a
  2PL lock-discipline checker, an MVCC history checker, a TrueTime
  monotonicity/commit-window checker — plus a same-seed replay harness
  that asserts two runs of a scenario export byte-identical traces.
  Violations raise :class:`repro.errors.SanitizerViolation` and
  increment ``sanitizer.violations`` counters in the metrics registry.
"""

from repro.analysis.reprolint import Diagnostic, lint_tree, main
from repro.analysis.replay import ReplayReport, ReplayRun, fingerprint, run_replay
from repro.analysis.sanitizers import (
    StackSanitizer,
    install,
    maybe_install,
    sanitizers_enabled,
    set_enabled,
)

__all__ = [
    "Diagnostic",
    "lint_tree",
    "main",
    "ReplayReport",
    "ReplayRun",
    "fingerprint",
    "run_replay",
    "StackSanitizer",
    "install",
    "maybe_install",
    "sanitizers_enabled",
    "set_enabled",
]
