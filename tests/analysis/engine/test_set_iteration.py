"""set-iteration: dataflow origin resolution and its FP regressions.

An earlier per-file check flagged any ``for x in name`` where ``name``
was *ever* bound to a set in the scope — including iterations whose
result is consumed order-insensitively. These are the regression cases
the dataflow check, now the only one, must get right.
"""

import ast
from pathlib import Path

from repro.analysis.engine.perflint import Engine
from repro.analysis.reprolint import ParsedModule


def findings(source, rel_path="service/mod.py"):
    module = ParsedModule(Path("/fixture") / rel_path, rel_path, source)
    engine = Engine.build([module], ledger_path=None)
    return engine.check_set_iteration()


# -- true positives ----------------------------------------------------------


def test_for_over_local_set_is_flagged():
    diags = findings(
        "def f(sink):\n"
        "    seen = {1, 2}\n"
        "    for x in seen:\n"
        "        sink(x)\n"
    )
    assert [d.check for d in diags] == ["set-iteration"]
    assert diags[0].line == 3


def test_for_over_module_level_frozenset_is_flagged():
    diags = findings(
        "KINDS = frozenset({'a', 'b'})\n"
        "OUT = []\n"
        "for k in KINDS:\n"
        "    OUT.append(k)\n"
    )
    assert len(diags) == 1 and diags[0].line == 3


def test_listcomp_over_set_origin_is_flagged():
    diags = findings(
        "def f():\n"
        "    seen = {1, 2}\n"
        "    return [x for x in seen]\n"
    )
    assert len(diags) == 1


# -- the false-positive regressions ------------------------------------------


def test_comprehension_over_sorted_set_not_flagged():
    # iterating sorted(seen) iterates a list: the set-typed name is an
    # argument, not the iterable
    diags = findings(
        "def f():\n"
        "    seen = {1, 2}\n"
        "    return [x for x in sorted(seen)]\n"
    )
    assert diags == []


def test_genexp_consumed_by_sorted_not_flagged():
    diags = findings(
        "def f():\n"
        "    seen = {1, 2}\n"
        "    return sorted(x for x in seen)\n"
    )
    assert diags == []


def test_frozenset_constant_into_sorted_not_flagged():
    diags = findings(
        "KINDS = frozenset({'a', 'b'})\n"
        "ORDERED = sorted(k for k in KINDS)\n"
    )
    assert diags == []


def test_set_comprehension_result_is_order_free():
    diags = findings(
        "def f():\n"
        "    seen = {1, 2}\n"
        "    return {x + 1 for x in seen}\n"
    )
    assert diags == []


def test_other_order_insensitive_consumers():
    for consumer in ("sum", "min", "max", "len", "any", "all", "set"):
        diags = findings(
            "def f():\n"
            "    seen = {1, 2}\n"
            f"    return {consumer}(x for x in seen)\n"
        )
        assert diags == [], consumer


# -- origin resolution conservatism ------------------------------------------


def test_parameter_origin_is_unknown():
    diags = findings(
        "def f(vals, sink):\n"
        "    for v in vals:\n"
        "        sink(v)\n"
    )
    assert diags == []


def test_mixed_origins_not_flagged():
    # one reaching definition is a list: iteration order may be stable
    diags = findings(
        "def f(flag, sink):\n"
        "    vals = {1, 2}\n"
        "    if flag:\n"
        "        vals = [1, 2]\n"
        "    for v in vals:\n"
        "        sink(v)\n"
    )
    assert diags == []


def test_all_set_origins_across_branches_flagged():
    diags = findings(
        "def f(flag, sink):\n"
        "    vals = {1, 2}\n"
        "    if flag:\n"
        "        vals = {3}\n"
        "    for v in vals:\n"
        "        sink(v)\n"
    )
    assert len(diags) == 1


def test_set_union_expression_is_a_set_origin():
    diags = findings(
        "def f(sink):\n"
        "    vals = {1} | {2}\n"
        "    for v in vals:\n"
        "        sink(v)\n"
    )
    assert len(diags) == 1
