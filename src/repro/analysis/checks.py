"""The repo-specific lint checks.

Each check is a function ``check(module: ParsedModule) -> list[Diagnostic]``
registered under its stable id in the analyser's one check table
(:data:`repro.analysis.engine.driver.CHECKS`), next to the engine passes.
Ids are what inline pragmas (``# reprolint: disable=<id> -- reason``)
and ``--check`` refer to, so they are part of the tool's public
interface. Iteration over sets is checked by the engine's dataflow
``set-iteration`` pass, which sees where a value came from and how the
loop's result is consumed.

Checks
------

``wallclock``
    Bans nondeterministic time/entropy calls (``time.time``,
    ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, ``secrets.*``)
    outside the allowlisted ``sim/`` core. All time must come from
    :class:`repro.sim.clock.SimClock`, all randomness from
    :class:`repro.sim.rand.SimRandom` — that is what makes every run
    replayable from a seed.

``banned-import``
    Bans importing the ``random``, ``secrets`` and ``time`` modules
    outside ``sim/`` — the only sanctioned randomness/time boundary.

``layering``
    Enforces :data:`LAYER_CONTRACT`, the sanctioned import graph between
    subsystems (client → core → spanner, realtime must never import
    client, ``sim`` sits at the bottom, …). Growing a new edge means
    editing the contract here — a reviewed, deliberate act.

``bare-except``
    Bans ``except:`` handlers (they swallow SanitizerViolation,
    KeyboardInterrupt and genuine bugs alike).

``error-boundary``
    Only :mod:`repro.errors` exceptions may cross subsystem boundaries:
    exception classes defined elsewhere must be module-private
    (``_``-prefixed) or subclass a ``repro.errors`` class, raising a
    bare ``Exception`` is banned, and raising an exception class
    imported from another subsystem (not ``repro.errors``) is banned.

``trace-span-context``
    Spans must be opened via context manager (``with tracer.span(...)``)
    so they always close, nest correctly and record errors; explicit
    ``start_span``/``end`` lifetimes are reserved for the event-driven
    serving simulation (``service/``) and ``obs/`` itself.

``fault-seeded``
    Fault injection must be replayable: every ``FaultPlan(...)``
    construction needs an explicit seed (positional or ``seed=``), and
    inside ``faults/`` a bare ``SimRandom()`` (implicit default seed) is
    banned — fault decisions must come from an explicitly seeded stream
    or a fork of one, never ambient randomness.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.reprolint import Diagnostic, ParsedModule

# -- the architecture contract ------------------------------------------------

#: Which repro subsystems each subsystem may import. Absence of an edge is a
#: violation: the graph is the reviewed architecture, not a suggestion. The
#: intended layering (top of the list may import toward the bottom):
#:
#:   client / emulator / datastore / workloads        (outermost consumers)
#:     -> core (Firestore backend)  -> rules, realtime
#:       -> spanner (storage)       -> obs (cross-cutting telemetry)
#:         -> sim (clock/randomness kernel) -> errors (leaf)
#:
#: ``analysis`` is the cross-cutting guardrail package: ``spanner`` may
#: lazily import its sanitizers, and ``analysis`` may observe the layers
#: it checks.
LAYER_CONTRACT: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "sim": frozenset({"errors"}),
    #: ``obs -> faults`` mirrors the spanner/analysis pairing: the
    #: critpath CLI lazily drives chaos scenarios to produce the traces
    #: it attributes, while ``faults`` lazily imports the analyzers.
    "obs": frozenset({"core", "errors", "faults", "service", "sim"}),
    "analysis": frozenset({"errors", "obs", "sim", "spanner"}),
    "check": frozenset(
        {"core", "errors", "obs", "sim", "spanner", "workloads"}
    ),
    "spanner": frozenset({"analysis", "check", "errors", "obs", "sim"}),
    "service": frozenset({"errors", "obs", "sim"}),
    "realtime": frozenset({"core", "errors", "obs", "sim"}),
    "rules": frozenset({"core", "errors"}),
    "core": frozenset(
        {
            "errors",
            "obs",
            "realtime",
            "replication",
            "rules",
            "sim",
            "spanner",
        }
    ),
    "replication": frozenset({"errors", "sim"}),
    "datastore": frozenset({"core", "errors"}),
    "client": frozenset({"core", "errors", "faults", "realtime"}),
    "emulator": frozenset({"core", "errors"}),
    "faults": frozenset(
        {
            "analysis",
            "check",
            "client",
            "core",
            "errors",
            "obs",
            "realtime",
            "service",
            "sim",
            "spanner",
            "workloads",
        }
    ),
    "workloads": frozenset(
        {"core", "errors", "obs", "service", "sim", "spanner"}
    ),
    "__init__": frozenset({"core"}),
}

#: Modules under these rel-path prefixes may touch wall clocks and real
#: randomness: they are the deterministic-simulation boundary itself.
DETERMINISM_ALLOWLIST = ("sim/",)

#: Explicit-lifetime spans (start_span + end) are the pattern for the
#: event-driven serving sim, where a span outlives any lexical scope.
#: ``faults/chaos.py`` qualifies: its overload fleet is a kernel-driven
#: state machine whose per-op root spans end in completion callbacks.
START_SPAN_ALLOWLIST = ("service/", "obs/", "faults/chaos.py")

BANNED_CALLS: dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "time.process_time_ns": "wall-clock read",
    "time.localtime": "wall-clock read",
    "time.gmtime": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS entropy",
}

BANNED_CALL_PREFIXES: dict[str, str] = {"secrets.": "OS entropy"}

BANNED_MODULES = {"random", "secrets", "time"}

#: stdlib members that `from X import Y` may alias; maps the bare name back
#: to its qualified form so `from datetime import datetime; datetime.now()`
#: still resolves to "datetime.datetime.now".
_FROM_IMPORT_CANON = {
    ("datetime", "datetime"): "datetime.datetime",
    ("datetime", "date"): "datetime.date",
}


def _diag(
    module: ParsedModule, node: ast.AST, check: str, message: str
) -> Diagnostic:
    return Diagnostic(
        module.rel_path,
        getattr(node, "lineno", 1),
        getattr(node, "col_offset", 0),
        check,
        message,
    )


# -- import resolution helpers ------------------------------------------------


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they were imported as."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                canon = _FROM_IMPORT_CANON.get(
                    (node.module, name.name), f"{node.module}.{name.name}"
                )
                aliases[local] = canon
    return aliases


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve(dotted: str, aliases: dict[str, str]) -> str:
    root, _, rest = dotted.partition(".")
    base = aliases.get(root, root)
    return f"{base}.{rest}" if rest else base


# -- determinism checks -------------------------------------------------------


def check_wallclock(module: ParsedModule) -> list[Diagnostic]:
    """Nondeterministic time/entropy call outside the sim core."""
    if module.in_subtree(*DETERMINISM_ALLOWLIST):
        return []
    aliases = _import_aliases(module.tree)
    out = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        resolved = _resolve(dotted, aliases)
        why = BANNED_CALLS.get(resolved)
        if why is None:
            for prefix, prefix_why in BANNED_CALL_PREFIXES.items():
                if resolved.startswith(prefix):
                    why = prefix_why
                    break
        if why is not None:
            out.append(
                _diag(
                    module,
                    node,
                    "wallclock",
                    f"{resolved}() is a {why}: use the SimClock/SimRandom "
                    "plumbed through the component (determinism)",
                )
            )
    return out


def check_banned_import(module: ParsedModule) -> list[Diagnostic]:
    """random/secrets/time imported outside the sim core."""
    if module.in_subtree(*DETERMINISM_ALLOWLIST):
        return []
    out = []
    for node in ast.walk(module.tree):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names = [node.module.split(".")[0]]
        for name in names:
            if name in BANNED_MODULES:
                out.append(
                    _diag(
                        module,
                        node,
                        "banned-import",
                        f"module {name!r} may only be imported inside "
                        "repro/sim (the deterministic-simulation boundary); "
                        "use SimClock/SimRandom instead",
                    )
                )
    return out


# -- architecture checks ------------------------------------------------------


def check_layering(module: ParsedModule) -> list[Diagnostic]:
    """Import edge not in the sanctioned subsystem contract."""
    allowed = LAYER_CONTRACT.get(module.package)
    out = []
    if allowed is None:
        first = module.tree.body[0] if module.tree.body else module.tree
        return [
            _diag(
                module,
                first,
                "layering",
                f"package {module.package!r} is not in the layering "
                "contract; add it to repro.analysis.checks.LAYER_CONTRACT "
                "with its sanctioned imports",
            )
        ]
    for node in ast.walk(module.tree):
        targets: list[tuple[ast.AST, str]] = []
        if isinstance(node, ast.Import):
            targets = [(node, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            targets = [(node, node.module)]
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            out.append(
                _diag(
                    module,
                    node,
                    "layering",
                    "relative imports hide the subsystem edge from the "
                    "contract; use absolute 'repro.<package>' imports",
                )
            )
        for imp_node, target in targets:
            if target == "repro" or target.startswith("repro."):
                parts = target.split(".")
                dep = parts[1] if len(parts) > 1 else "__init__"
                if dep == module.package or dep == "__init__" and len(parts) == 1:
                    if target == "repro":
                        out.append(
                            _diag(
                                module,
                                imp_node,
                                "layering",
                                "internal modules must import concrete "
                                "subpackages, not the repro root package",
                            )
                        )
                    continue
                if dep not in allowed:
                    out.append(
                        _diag(
                            module,
                            imp_node,
                            "layering",
                            f"{module.package!r} may not import "
                            f"'repro.{dep}' (sanctioned imports: "
                            f"{', '.join(sorted(allowed)) or 'none'})",
                        )
                    )
    return out


def check_bare_except(module: ParsedModule) -> list[Diagnostic]:
    """``except:`` swallows everything, including sanitizer violations."""
    out = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(
                _diag(
                    module,
                    node,
                    "bare-except",
                    "bare 'except:' swallows SanitizerViolation and "
                    "KeyboardInterrupt; catch a concrete repro.errors type",
                )
            )
    return out


def _errors_class_names() -> frozenset[str]:
    import repro.errors as errors_mod

    return frozenset(
        name
        for name, obj in vars(errors_mod).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    )


def check_error_boundary(module: ParsedModule) -> list[Diagnostic]:
    """Exception crossing a subsystem boundary without repro.errors."""
    if module.rel_path == "errors.py":
        return []
    errors_names = _errors_class_names()
    aliases = _import_aliases(module.tree)
    out = []

    # classes in this module that (transitively, within the module) derive
    # from a repro.errors class
    local_ok: set[str] = set()
    local_exception_defs: list[ast.ClassDef] = [
        node for node in ast.walk(module.tree) if isinstance(node, ast.ClassDef)
    ]
    changed = True
    while changed:
        changed = False
        for cls in local_exception_defs:
            if cls.name in local_ok:
                continue
            for base in cls.bases:
                base_name = _dotted_name(base)
                if base_name is None:
                    continue
                resolved = _resolve(base_name, aliases)
                last = resolved.split(".")[-1]
                if (
                    resolved.startswith("repro.errors.")
                    or last in errors_names
                    and (
                        aliases.get(base_name, "").startswith("repro.errors.")
                        or base_name in local_ok
                    )
                    or base_name in local_ok
                ):
                    local_ok.add(cls.name)
                    changed = True
                    break

    local_defs = {cls.name: cls for cls in local_exception_defs}

    def is_exceptionish(cls: ast.ClassDef, seen: tuple = ()) -> bool:
        for base in cls.bases:
            base_name = _dotted_name(base)
            if base_name is None:
                continue
            last = base_name.split(".")[-1]
            if (
                last in ("Exception", "BaseException")
                or last in errors_names
                or base_name in local_ok
            ):
                return True
            if base_name in local_defs and base_name not in seen:
                # a locally-defined base settles the question: recurse
                # into it instead of guessing from its name (a plain
                # dataclass called FooViolation is not an exception)
                if is_exceptionish(local_defs[base_name], seen + (base_name,)):
                    return True
                continue
            if last.endswith(("Error", "Failure", "Violation", "Conflict")):
                return True
        return False

    for cls in local_exception_defs:
        if not is_exceptionish(cls):
            continue
        if cls.name.startswith("_") or cls.name in local_ok:
            continue
        out.append(
            _diag(
                module,
                cls,
                "error-boundary",
                f"public exception {cls.name!r} defined outside repro.errors "
                "must subclass a repro.errors class (or be module-private "
                "with a leading underscore)",
            )
        )

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        callee = exc.func if isinstance(exc, ast.Call) else exc
        dotted = _dotted_name(callee)
        if dotted is None:
            continue
        resolved = _resolve(dotted, aliases)
        if resolved in ("Exception", "BaseException"):
            out.append(
                _diag(
                    module,
                    node,
                    "error-boundary",
                    f"raise a specific repro.errors type, not {resolved}",
                )
            )
        elif resolved.startswith("repro.") and not resolved.startswith(
            "repro.errors."
        ):
            out.append(
                _diag(
                    module,
                    node,
                    "error-boundary",
                    f"{resolved} is another subsystem's exception; only "
                    "repro.errors types may cross subsystem boundaries",
                )
            )
    return out


# -- instrumentation-tap coverage ---------------------------------------------
#
# Three planes (history recorder, sim-time profiler, wait causes) are fed
# from taps inside hot-path functions. A refactor that rewrites one of
# those functions without re-plumbing its tap fails silently and far from
# the diff, so each plane keeps a registry — module rel-path ->
# ``Class.method`` / module-level function names — and one check holds
# all three to it.

#: The hot-path methods that must feed the repro.check history recorder;
#: without the tap the consistency checker is blind to that path.
REQUIRED_HISTORY_TAPS: dict[str, frozenset[str]] = {
    "spanner/transaction.py": frozenset(
        {
            "ReadWriteTransaction.__init__",
            "ReadWriteTransaction.read_versioned",
            "ReadWriteTransaction.scan",
            "ReadWriteTransaction._inject_commit_faults",
            "ReadWriteTransaction._apply",
            "ReadWriteTransaction._abort",
        }
    ),
    "spanner/database.py": frozenset(
        {"SpannerDatabase.snapshot_read_versioned"}
    ),
    "core/backend.py": frozenset({"Backend.commit", "Backend.run_query"}),
    "realtime/changelog.py": frozenset(
        {
            "Changelog.accept",
            "Changelog._advance",
            "Changelog._mark_out_of_sync",
            "Changelog.resync",
        }
    ),
    "realtime/frontend.py": frozenset(
        {"Frontend._start_query", "RealtimeConnection._pump"}
    ),
    "replication/group.py": frozenset(
        {
            "ReplicaGroup.commit",
            "ReplicaGroup.elect",
            "ReplicaGroup.route_read",
            "ReplicaGroup._apply_arrived",
        }
    ),
}

#: The subsystem entry points that must feed the repro.obs sim-time
#: profiler. Its ≥99% busy-time coverage guarantee only holds while every
#: path that advances (or accounts) simulated time carries a tag; drop
#: one and the profiles start reporting partial busy time.
REQUIRED_PERF_TAPS: dict[str, frozenset[str]] = {
    "service/pool.py": frozenset({"TaskPool._dispatch"}),
    "service/overload.py": frozenset({"OverloadState.account_hedge"}),
    "service/scheduler.py": frozenset(
        {"FairShareScheduler._record_dispatch"}
    ),
    "spanner/transaction.py": frozenset({"ReadWriteTransaction.commit"}),
    "core/backend.py": frozenset({"Backend.commit"}),
    "realtime/changelog.py": frozenset(
        {"Changelog.accept", "Changelog._advance"}
    ),
    "client/client.py": frozenset({"MobileClient.flush"}),
    "replication/group.py": frozenset({"ReplicaGroup.commit"}),
}

#: The blocking paths that must annotate their waits with a structured
#: cause for the critical-path engine (``repro.obs.critpath``): a
#: ``.wait(...)``, a ``record_wait(...)``, or a ``wait_cause`` error
#: hint. Tail coverage is gated at >= 99% attributed; a dropped tap turns
#: its time into ``unattributed``.
REQUIRED_WAIT_TAPS: dict[str, frozenset[str]] = {
    "service/pool.py": frozenset({"TaskPool._make_completion"}),
    "service/scheduler.py": frozenset(
        {"FairShareScheduler._record_dispatch"}
    ),
    "service/cluster.py": frozenset({"_Request.settle"}),
    "service/overload.py": frozenset({"OverloadState.record_hedge_wait"}),
    "faults/retry.py": frozenset({"call_with_retry"}),
    "spanner/transaction.py": frozenset(
        {
            "_lock_abort",
            "ReadWriteTransaction.read_versioned",
            "ReadWriteTransaction.commit",
        }
    ),
    "replication/group.py": frozenset(
        {
            "ReplicaGroup.precommit",
            "ReplicaGroup.elect",
            "ReplicaGroup.commit",
        }
    ),
    "core/transaction.py": frozenset({"run_transaction"}),
}

#: check id -> (one-line description, registry, the names whose mention
#: counts as the tap, message for a function that lost it, message for a
#: registered function that no longer exists); ``{0}`` is the qualname
_TAP_PLANES: dict[str, tuple] = {
    "history-tap": (
        "Instrumented hot path lost its history-recorder tap.",
        REQUIRED_HISTORY_TAPS,
        ("recorder",),
        "{0} must feed the repro.check history recorder (guard with "
        "'if recorder is not None'); without the tap the consistency "
        "checker is blind to this path",
        "expected history-tapped method {0} was not found; update "
        "REQUIRED_HISTORY_TAPS in repro.analysis.checks if the hot path "
        "moved",
    ),
    "perf-attribution": (
        "Subsystem entry point lost its sim-time profiler tag.",
        REQUIRED_PERF_TAPS,
        ("profiler",),
        "{0} must carry a repro.obs profiler tag (account(...) or "
        "measure(...), guarded by 'if profiler'); without it the "
        "profiler's busy-time coverage guarantee is broken for this path",
        "expected profiler-tagged entry point {0} was not found; update "
        "REQUIRED_PERF_TAPS in repro.analysis.checks if the entry point "
        "moved",
    ),
    "wait-tap": (
        "Blocking path lost its structured wait-cause annotation.",
        REQUIRED_WAIT_TAPS,
        ("wait", "record_wait", "wait_cause"),
        "{0} must annotate its blocking interval with a structured wait "
        "cause (span.wait(...) / tracer.record_wait(...) / an error's "
        "wait_cause hint); without the tap repro.obs.critpath reports "
        "this time as 'unattributed' and the tail-coverage gate fails",
        "expected wait-tapped path {0} was not found; update "
        "REQUIRED_WAIT_TAPS in repro.analysis.checks if the blocking "
        "path moved",
    ),
}

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _tap_check(check_id: str):
    """The check for one plane of :data:`_TAP_PLANES`."""
    doc, registry, names, lost_tap, not_found = _TAP_PLANES[check_id]

    def check(module: ParsedModule) -> list[Diagnostic]:
        required = registry.get(module.rel_path)
        if not required:
            return []
        functions = [
            (fn.name, fn)
            for fn in module.tree.body
            if isinstance(fn, _FUNCTION_DEFS)
        ]
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                functions += [
                    (f"{cls.name}.{fn.name}", fn)
                    for fn in cls.body
                    if isinstance(fn, _FUNCTION_DEFS)
                ]
        out = []
        found: set[str] = set()
        for qualname, fn in functions:
            if qualname not in required:
                continue
            found.add(qualname)
            if not any(
                getattr(node, "attr", None) in names
                or getattr(node, "id", None) in names
                for node in ast.walk(fn)
            ):
                out.append(
                    _diag(module, fn, check_id, lost_tap.format(qualname))
                )
        first = module.tree.body[0] if module.tree.body else module.tree
        for qualname in sorted(required - found):
            out.append(
                _diag(module, first, check_id, not_found.format(qualname))
            )
        return out

    check.__doc__ = doc
    return check


check_history_tap = _tap_check("history-tap")
check_perf_attribution = _tap_check("perf-attribution")
check_wait_tap = _tap_check("wait-tap")


# -- trace hygiene ------------------------------------------------------------


def _is_tracer_receiver(func: ast.Attribute) -> bool:
    receiver = _dotted_name(func.value)
    if receiver is None:
        return False
    last = receiver.split(".")[-1]
    return last in ("tracer", "_tracer")


def check_trace_span_context(module: ParsedModule) -> list[Diagnostic]:
    """Span opened outside a ``with`` block (or start_span outside sim)."""
    with_contexts: set[int] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                with_contexts.add(id(item.context_expr))
    out = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if not _is_tracer_receiver(node.func):
            continue
        if node.func.attr == "span" and id(node) not in with_contexts:
            out.append(
                _diag(
                    module,
                    node,
                    "trace-span-context",
                    "tracer.span(...) must be used as a context manager "
                    "('with tracer.span(...)') so the span always closes",
                )
            )
        elif node.func.attr == "start_span" and not module.in_subtree(
            *START_SPAN_ALLOWLIST
        ):
            out.append(
                _diag(
                    module,
                    node,
                    "trace-span-context",
                    "explicit start_span lifetimes are reserved for the "
                    "event-driven serving sim (service/, obs/); use "
                    "'with tracer.span(...)' here",
                )
            )
    return out


# -- fault-injection hygiene --------------------------------------------------


def check_fault_seeded(module: ParsedModule) -> list[Diagnostic]:
    """Fault plane built on ambient randomness instead of an explicit seed."""
    in_faults = module.rel_path.startswith("faults/")
    out = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if name is None:
            continue
        last = name.split(".")[-1]
        has_seed = bool(node.args) or any(
            kw.arg == "seed" for kw in node.keywords
        )
        if last == "FaultPlan" and not has_seed:
            out.append(
                _diag(
                    module,
                    node,
                    "fault-seeded",
                    "FaultPlan(...) requires an explicit seed so every "
                    "fault schedule is replayable",
                )
            )
        elif last == "SimRandom" and in_faults and not has_seed:
            out.append(
                _diag(
                    module,
                    node,
                    "fault-seeded",
                    "bare SimRandom() inside faults/ relies on the "
                    "implicit default seed; pass one explicitly or fork "
                    "an explicitly seeded stream",
                )
            )
    return out

