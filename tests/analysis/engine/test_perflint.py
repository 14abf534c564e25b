"""Each perflint check against its good/bad fixture pair.

Every function in ``perfpkg/service/hotfuncs.py`` is marked hot by the
fixture ledger, so the only difference between a flagged ``bad_*`` body
and its clean ``good_*`` twin is the pattern under test.
"""

from pathlib import Path

import pytest

from repro.analysis.engine.perflint import Engine
from repro.analysis.reprolint import _iter_sources, _parse

FIXTURES = Path(__file__).parent / "fixtures"
PERFPKG = FIXTURES / "perfpkg"
LEDGER = FIXTURES / "perfpkg_ledger.json"


@pytest.fixture(scope="module")
def diags():
    modules = [_parse(p, PERFPKG) for p in _iter_sources(PERFPKG)]
    engine = Engine.build(modules, ledger_path=LEDGER)
    return engine.check_missing_slots() + engine.check_hot_functions()


def by_check(diags, check):
    return [d for d in diags if d.check == check]


def test_good_twins_are_never_flagged(diags):
    assert diags, "the bad fixtures must produce findings"
    assert not any("good_" in d.message for d in diags)


def test_exact_finding_counts(diags):
    counts = {}
    for diag in diags:
        counts[diag.check] = counts.get(diag.check, 0) + 1
    assert counts == {
        "missing-slots": 1,
        "hot-loop-alloc": 1,
        "repeated-attr-lookup": 1,
        "dict-dispatch-miss": 2,
        "try-in-hot-loop": 1,
        "interned-key-miss": 1,
    }


def test_missing_slots_names_class_and_hot_caller(diags):
    (diag,) = by_check(diags, "missing-slots")
    assert "'Plain'" in diag.message
    assert "bad_slots" in diag.message
    assert "Thing" not in diag.message


def test_hot_loop_alloc_carries_ledger_evidence(diags):
    (diag,) = by_check(diags, "hot-loop-alloc")
    assert "bad_alloc" in diag.message
    assert "list literal" in diag.message
    assert "% self time on perf_fixture" in diag.message


def test_repeated_attr_lookup(diags):
    (diag,) = by_check(diags, "repeated-attr-lookup")
    assert "bad_attr" in diag.message
    assert "'thing.name'" in diag.message
    assert "3x" in diag.message


def test_dict_dispatch_flags_hasattr_and_enum_synthesis(diags):
    found = by_check(diags, "dict-dispatch-miss")
    messages = " | ".join(d.message for d in found)
    assert all("bad_dispatch" in d.message for d in found)
    assert "hasattr()" in messages
    assert ".name.lower()" in messages


def test_try_in_hot_loop(diags):
    (diag,) = by_check(diags, "try-in-hot-loop")
    assert "bad_try" in diag.message


def test_interned_key_miss(diags):
    (diag,) = by_check(diags, "interned-key-miss")
    assert "bad_interned" in diag.message
