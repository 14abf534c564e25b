"""Hot-path performance lints + interprocedural determinism taint.

Every check here consumes the engine IR (symbol table, call graph,
hot-path overlay, CFG/dataflow) instead of a single file's AST, which is
what separates them from :mod:`repro.analysis.checks`:

``missing-slots``
    A class instantiated from a hot-path function has no ``__slots__``
    (and is not a dataclass with ``slots=True``). Dict-backed instances
    cost an allocation and two pointer chases per attribute on the
    per-event path.

``hot-loop-alloc``
    List/dict/set/comprehension/lambda/f-string/closure construction —
    or a tuple built from non-constants — inside a loop of a hot-path
    function. Per-iteration allocation dominates the dispatch loop.

``repeated-attr-lookup``
    The same attribute chain (``a.b.c``) loaded 3+ times inside one loop
    body of a hot function without a local binding. Each load is a dict
    probe; bind it once before the loop.

``dict-dispatch-miss``
    ``getattr``/``hasattr`` dynamic dispatch, or enum ``.name.lower()``
    string synthesis, inside a hot loop — precompute a dict keyed by the
    dispatch value instead.

``try-in-hot-loop``
    A ``try`` statement inside a loop of a hot function. Move the try
    outside the loop (or hoist the loop into the try).

``interned-key-miss``
    A *computed* string key (f-string, concatenation, ``.lower()`` /
    ``.format()`` result) used on a dict in a hot function. Computed
    keys hash a fresh uninterned string per event; precompute them.

``wallclock-indirect``
    Interprocedural determinism taint: calling a function that
    (transitively, through any number of hops) reaches a banned
    wall-clock/entropy call, from outside the ``sim/`` boundary. The
    per-file ``wallclock`` check flags the direct call; this one flags
    every caller, closing the helper-function soundness hole.

``set-iteration``
    Iteration over a value whose *origin* (via reaching definitions) is
    a set, unless the iteration is consumed order-insensitively
    (``sorted``, ``set``/``frozenset``, ``sum``/``min``/``max``/``len``/
    ``any``/``all``). Set iteration order depends on hash randomization
    for str/bytes keys, so it leaks cross-process nondeterminism.

Findings carry the hot-path evidence (which profiler cell marked the
function hot) and honor the same ``# reprolint: disable=<check> --
reason`` pragmas as every other check. Only the first six are perf
checks, metered against the speed budget; the analyser's check table
(:data:`repro.analysis.engine.driver.CHECKS`) records which.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Iterable, Optional

from repro.analysis.engine.callgraph import CallGraph
from repro.analysis.engine.cfg import build_cfg
from repro.analysis.engine.concurrency import FunctionFlow
from repro.analysis.engine.dataflow import reaching_definitions
from repro.analysis.engine.effects import EffectAnalysis
from repro.analysis.engine.hotpath import HotPaths
from repro.analysis.engine.symbols import FunctionInfo, SymbolTable
from repro.analysis.reprolint import Diagnostic, ParsedModule

#: consuming calls for which iteration order cannot be observed
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"}
)

#: base classes that rule a class out of ``__slots__`` treatment
_UNSLOTTABLE_BASES = frozenset(
    {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "NamedTuple"}
)

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

_ATTR_LOOKUP_THRESHOLD = 3


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


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _walk_no_defs(node: ast.AST, skip_self: bool = True) -> Iterable[ast.AST]:
    """Walk yielding every node but not descending into nested function
    bodies (separate scopes; the def/lambda node itself is yielded so
    closure *construction* remains visible to the allocation check)."""
    stack = [node]
    first = skip_self
    while stack:
        current = stack.pop()
        if not first and isinstance(current, _FUNC_NODES + (ast.Lambda,)):
            yield current
            continue
        first = False
        yield current
        stack.extend(reversed(list(ast.iter_child_nodes(current))))


def _hot_loops(info: FunctionInfo) -> list[ast.stmt]:
    """Loop statements belonging to this function (not nested defs)."""
    return [
        node
        for node in _walk_no_defs(info.node)
        if isinstance(node, _LOOP_NODES)
    ]


class Engine:
    """The assembled IR plus the passes run over it."""

    def __init__(
        self,
        modules: list[ParsedModule],
        table: SymbolTable,
        graph: CallGraph,
        hot: HotPaths,
    ):
        self.modules = modules
        self.modules_by_path = {m.rel_path: m for m in modules}
        self.table = table
        self.graph = graph
        self.hot = hot

    @classmethod
    def build(
        cls, modules: list[ParsedModule], ledger_path=None
    ) -> "Engine":
        table = SymbolTable.build(modules)
        graph = CallGraph.build(table)
        hot = HotPaths.from_ledger(ledger_path, table, graph)
        return cls(modules, table, graph, hot)

    @cached_property
    def flows(self) -> dict[str, FunctionFlow]:
        """Effect-annotated CFG per function, for the concurrency,
        typestate and protocol checks."""
        analysis = EffectAnalysis(self.table, self.graph)
        return {
            qual: FunctionFlow(info, analysis)
            for qual, info in sorted(self.table.functions.items())
        }

    # -- the per-hot-function checks ---------------------------------------

    def check_hot_functions(self) -> list[Diagnostic]:
        """The hot-loop family and interned-key-miss, per hot function."""
        out: list[Diagnostic] = []
        for qualname, info in self.table.functions.items():
            if qualname not in self.hot:
                continue
            module = self.modules_by_path.get(info.rel_path)
            if module is None:
                continue
            evidence = self.hot.why(qualname)
            out.extend(self.check_hot_loops(module, info, evidence))
            out.extend(self.check_interned_keys(module, info, evidence))
        return out

    # -- missing-slots -----------------------------------------------------

    def check_missing_slots(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        # class qualname -> first hot instantiator (sorted order)
        hot_instantiators: dict[str, str] = {}
        for qualname in sorted(self.table.functions):
            if qualname not in self.hot:
                continue
            for cls_qual in self.graph.instantiates.get(qualname, ()):
                hot_instantiators.setdefault(cls_qual, qualname)
        for cls_qual, caller in sorted(hot_instantiators.items()):
            cls = self.table.classes[cls_qual]
            if cls.has_slots or self._unslottable(cls):
                continue
            module = self.modules_by_path.get(cls.rel_path)
            if module is None:
                continue
            out.append(
                _diag(
                    module,
                    cls.node,
                    "missing-slots",
                    f"class {cls.name!r} is instantiated on a hot path "
                    f"(by {caller}; {self.hot.why(caller)}) but has no "
                    "__slots__; add __slots__ (or dataclass(slots=True)) "
                    "to drop the per-instance dict",
                )
            )
        return out

    def _unslottable(self, cls) -> bool:
        for base in cls.node.bases:
            name = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name is None:
                continue
            if name in _UNSLOTTABLE_BASES or name.endswith(
                ("Error", "Exception", "Warning")
            ):
                return True
            # subclassing a project class without slots: slotting the
            # child alone would not remove the dict — flag the base
            # instead (it gets its own finding if hot-instantiated)
            for base_qual in self.table.classes_by_name.get(name, []):
                if not self.table.classes[base_qual].has_slots:
                    return True
        return False

    # -- the per-function hot-loop family ---------------------------------

    def check_hot_loops(
        self, module: ParsedModule, info: FunctionInfo, evidence: str
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for loop in _hot_loops(info):
            body_nodes = [
                node
                for stmt in loop.body
                for node in _walk_no_defs(stmt, skip_self=False)
            ]
            out.extend(
                self._loop_allocs(module, info, loop, body_nodes, evidence)
            )
            out.extend(
                self._loop_attr_lookups(
                    module, info, loop, body_nodes, evidence
                )
            )
            out.extend(
                self._loop_dispatch(module, info, loop, body_nodes, evidence)
            )
            for node in body_nodes:
                if isinstance(node, ast.Try):
                    out.append(
                        _diag(
                            module,
                            node,
                            "try-in-hot-loop",
                            f"try block inside a loop of hot function "
                            f"{info.qualname} ({evidence}); hoist the "
                            "try out of the per-event loop",
                        )
                    )
        return out

    def _loop_allocs(
        self, module, info, loop, body_nodes, evidence
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in body_nodes:
            kind = None
            if isinstance(node, (ast.List, ast.Dict, ast.Set)):
                kind = type(node).__name__.lower() + " literal"
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                kind = "comprehension"
            elif isinstance(node, ast.Lambda) or isinstance(
                node, _FUNC_NODES
            ):
                kind = "closure"
            elif isinstance(node, ast.JoinedStr):
                kind = "f-string"
            elif isinstance(node, ast.Tuple) and isinstance(
                node.ctx, ast.Load
            ):
                if any(
                    not isinstance(elt, ast.Constant) for elt in node.elts
                ):
                    kind = "tuple construction"
            if kind is not None:
                out.append(
                    _diag(
                        module,
                        node,
                        "hot-loop-alloc",
                        f"{kind} inside a loop of hot function "
                        f"{info.qualname} ({evidence}); allocate outside "
                        "the per-event loop or use a preallocated record",
                    )
                )
        return out

    def _loop_attr_lookups(
        self, module, info, loop, body_nodes, evidence
    ) -> list[Diagnostic]:
        from repro.analysis.checks import _dotted_name

        counts: dict[str, list[ast.AST]] = {}
        for node in body_nodes:
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            dotted = _dotted_name(node)
            if dotted is None or "." not in dotted:
                continue
            counts.setdefault(dotted, []).append(node)
        out: list[Diagnostic] = []
        flagged_prefixes: list[str] = []
        for dotted in sorted(counts):
            sites = counts[dotted]
            if len(sites) < _ATTR_LOOKUP_THRESHOLD:
                continue
            # a.b.c implies a.b was also counted; flag only the longest
            if any(p.startswith(dotted + ".") for p in flagged_prefixes):
                continue
            deeper = [
                other
                for other in counts
                if other.startswith(dotted + ".")
                and len(counts[other]) >= _ATTR_LOOKUP_THRESHOLD
            ]
            if deeper:
                continue
            flagged_prefixes.append(dotted)
            first = min(sites, key=lambda n: (n.lineno, n.col_offset))
            out.append(
                _diag(
                    module,
                    first,
                    "repeated-attr-lookup",
                    f"attribute chain {dotted!r} loaded "
                    f"{len(sites)}x in a loop of hot function "
                    f"{info.qualname} ({evidence}); bind it to a local "
                    "before the loop",
                )
            )
        return out

    def _loop_dispatch(
        self, module, info, loop, body_nodes, evidence
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in body_nodes:
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in (
                    "getattr",
                    "hasattr",
                ):
                    out.append(
                        _diag(
                            module,
                            node,
                            "dict-dispatch-miss",
                            f"{func.id}() dispatch inside a loop of hot "
                            f"function {info.qualname} ({evidence}); "
                            "precompute a dict keyed by the dispatch "
                            "value",
                        )
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "lower"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "name"
                ):
                    out.append(
                        _diag(
                            module,
                            node,
                            "dict-dispatch-miss",
                            "enum .name.lower() string synthesis inside "
                            f"a loop of hot function {info.qualname} "
                            f"({evidence}); precompute a value->string "
                            "dict",
                        )
                    )
        return out

    # -- interned-key-miss -------------------------------------------------

    def check_interned_keys(
        self, module: ParsedModule, info: FunctionInfo, evidence: str
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for node in _walk_no_defs(info.node):
            key: Optional[ast.expr] = None
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault", "pop")
                and node.args
            ):
                key = node.args[0]
            if key is None or not self._computed_string(key):
                continue
            out.append(
                _diag(
                    module,
                    key,
                    "interned-key-miss",
                    "computed string key on a dict access in hot "
                    f"function {info.qualname} ({evidence}); computed "
                    "keys hash a fresh uninterned string per event — "
                    "precompute the key (or sys.intern it) once",
                )
            )
        return out

    @staticmethod
    def _computed_string(expr: ast.expr) -> bool:
        if isinstance(expr, ast.JoinedStr):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            for side in (expr.left, expr.right):
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, str
                ):
                    return True
            return False
        if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Attribute
        ):
            return expr.func.attr in ("format", "lower", "upper", "join")
        return False

    # -- interprocedural wallclock taint ----------------------------------

    def check_wallclock_indirect(self) -> list[Diagnostic]:
        from repro.analysis.checks import (
            BANNED_CALL_PREFIXES,
            BANNED_CALLS,
            DETERMINISM_ALLOWLIST,
        )

        def banned(external: str) -> bool:
            if external in BANNED_CALLS:
                return True
            for prefix in sorted(BANNED_CALL_PREFIXES):
                if external.startswith(prefix):
                    return True
            return False

        def in_sim(qualname: str) -> bool:
            rel = qualname.split("::", 1)[0]
            return any(
                rel.startswith(p) for p in DETERMINISM_ALLOWLIST
            )

        # taint source: a non-sim function making a banned call directly
        # (the per-file `wallclock` check flags the call itself; here we
        # chase its callers). sim/ functions are the sanctioned boundary:
        # taint neither seeds from nor crosses them.
        tainted: dict[str, str] = {}
        worklist: list[str] = []
        for qualname in sorted(self.table.functions):
            if in_sim(qualname):
                continue
            for external in self.graph.external_calls.get(qualname, ()):
                if banned(external):
                    tainted[qualname] = external
                    worklist.append(qualname)
                    break
        # propagate to callers, shortest chain first
        reach_via: dict[str, str] = {}
        while worklist:
            current = worklist.pop(0)
            for caller in self.graph.callers.get(current, ()):
                if caller in tainted or in_sim(caller):
                    continue
                tainted[caller] = tainted[current]
                reach_via[caller] = current
                worklist.append(caller)
        out: list[Diagnostic] = []
        for qualname in sorted(reach_via):
            callee = reach_via[qualname]
            info = self.table.functions[qualname]
            module = self.modules_by_path.get(info.rel_path)
            if module is None:
                continue
            line = self.graph.call_lines.get(qualname, {}).get(
                callee, info.lineno
            )
            chain = self._taint_chain(qualname, reach_via, tainted)
            node = _FakeNode(line)
            out.append(
                _diag(
                    module,
                    node,
                    "wallclock-indirect",
                    f"call to {callee.split('::')[-1]}() reaches "
                    f"{tainted[qualname]}() ({chain}); all time/entropy "
                    "must come through SimClock/SimRandom (determinism)",
                )
            )
        return out

    @staticmethod
    def _taint_chain(
        qualname: str, reach_via: dict[str, str], tainted: dict[str, str]
    ) -> str:
        parts = [qualname.split("::")[-1]]
        current = qualname
        hops = 0
        while current in reach_via and hops < 6:
            current = reach_via[current]
            parts.append(current.split("::")[-1])
            hops += 1
        parts.append(tainted[qualname])
        return " -> ".join(parts)

    # -- set-iteration (dataflow origin resolution) -----------------------

    def check_set_iteration(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for module in self.modules:
            parents = _parent_map(module.tree)
            # module scope: straight-line last-definition resolution
            out.extend(
                self._set_iter_scope(
                    module,
                    module.tree.body,
                    parents,
                    self._module_origins(module.tree.body),
                )
            )
            # function scopes: reaching-definitions resolution
            for qualname in sorted(
                q
                for (path, _name), quals in sorted(
                    self.table.functions_by_file_name.items()
                )
                if path == module.rel_path
                for q in quals
            ):
                info = self.table.functions[qualname]
                origins = self._function_origins(info)
                out.extend(
                    self._set_iter_scope(
                        module, info.node.body, parents, origins
                    )
                )
        return sorted(set(out))

    @staticmethod
    def _module_origins(body: list[ast.stmt]) -> dict[str, list[ast.expr]]:
        """name -> assigned value expressions at module scope."""
        origins: dict[str, list[ast.expr]] = {}
        for stmt in body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and value is not None:
                    origins.setdefault(target.id, []).append(value)
        return origins

    def _function_origins(
        self, info: FunctionInfo
    ) -> dict[str, list[ast.expr]]:
        """name -> every value expression any reaching def assigns it.

        Built from the function's CFG reaching-definitions fixpoint: a
        name's origin set is the union of assigned expressions over all
        its definitions anywhere in the function. (Per-use filtering
        would be sharper; whole-function union is already sound for the
        flag/no-flag decision because we only flag when *every* known
        origin is a set.)
        """
        cfg = build_cfg(info.node)
        rd = reaching_definitions(cfg)
        origins: dict[str, list[ast.expr]] = {}
        unknown: dict[str, None] = {}
        for definition in rd.all_defs:
            if definition.value is None:
                unknown[definition.name] = None
            else:
                origins.setdefault(definition.name, []).append(
                    definition.value
                )
        for name in sorted(unknown):
            origins.pop(name, None)
        # names that are function parameters have unknown origins
        args = info.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            origins.pop(arg.arg, None)
        return origins

    def _set_iter_scope(
        self,
        module: ParsedModule,
        body: list[ast.stmt],
        parents: dict[int, ast.AST],
        origins: dict[str, list[ast.expr]],
    ) -> list[Diagnostic]:
        message = (
            "iterating a set is order-nondeterministic under hash "
            "randomization; iterate sorted(...) or keep a list"
        )

        def is_set_origin(node: ast.expr) -> bool:
            if _is_set_expr(node):
                return True
            if isinstance(node, ast.Name):
                assigned = origins.get(node.id)
                if not assigned:
                    return False
                return all(_is_set_expr(value) for value in assigned)
            return False

        out: list[Diagnostic] = []
        for stmt in body:
            for node in _walk_no_defs(stmt, skip_self=False):
                checks: list[tuple[ast.expr, ast.AST]] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    checks.append((node.iter, node))
                elif isinstance(
                    node,
                    (
                        ast.ListComp,
                        ast.SetComp,
                        ast.GeneratorExp,
                        ast.DictComp,
                    ),
                ):
                    for gen in node.generators:
                        checks.append((gen.iter, node))
                for iter_node, context in checks:
                    if not is_set_origin(iter_node):
                        continue
                    if self._order_insensitive(context, parents):
                        continue
                    out.append(
                        _diag(
                            module, iter_node, "set-iteration", message
                        )
                    )
        return out

    @staticmethod
    def _order_insensitive(
        context: ast.AST, parents: dict[int, ast.AST]
    ) -> bool:
        """Is the iteration's result consumed order-insensitively?

        True for a set comprehension itself (its result is a set) and
        for a comprehension/generator passed directly to ``sorted`` &co.
        ``for`` statements execute effects in order — never exempt.
        """
        if isinstance(context, (ast.For, ast.AsyncFor)):
            return False
        if isinstance(context, ast.SetComp):
            return True
        parent = parents.get(id(context))
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_CALLS
        ):
            return True
        return False


class _FakeNode:
    """Position carrier for diagnostics derived from graph edges."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.col_offset = 0


def _parent_map(tree: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents
