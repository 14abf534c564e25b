"""A one-field update builds row keys for the changed field only.

Counted, not timed: Python ``line`` events executed inside
``core/encoding.py`` and ``core/index_entries.py`` per commit of a
one-field update (``n``) to a document with 1x, 4x or 16x copies of the
benchmark ladder's other fields, all unchanged. The commit's write plan
encodes every leaf of both documents once and builds keys only where the
encoded bytes differ; the reference below recomputes every entry of both
documents from scratch, one ``encode_value`` and one ``entry_key`` per
entry, and diffs the two key sets, as the commit path did before the
plan. The plan executes under 0.30x of the reference's lines at every
size, and the number of row keys a commit writes does not grow with the
unchanged fields.
"""

import pytest

from repro.core.backend import set_op, update_op
from repro.core.encoding import ASCENDING, DESCENDING, encode_value
from repro.core.firestore import FirestoreService
from repro.core.index_entries import diff_entries, entry_key, iter_indexable_fields
from repro.core.path import Path
from tests._counting import lines_per_op

_COUNTED = ("core/encoding.py", "core/index_entries.py")
UPDATES = 10
#: the ladder document's fields other than the counter ``n``
FIELDS = {
    "city": "city01",
    "age": 30,
    "score": 51.5,
    "active": True,
    "tags": ["a", "f", "k"],
    "addr": {"st": "CA", "zip": 94110},
    "text": "serverless document database realtime query index",
}


def recompute(registry, doc_path: Path, data: dict) -> dict:
    """Every entry of one document, from scratch, one key at a time."""
    parent = doc_path.parent()
    group = parent.id
    entries = {}
    for path, value in iter_indexable_fields(data):
        if registry.is_exempt(group, path):
            continue
        for direction in (ASCENDING, DESCENDING):
            index = registry.auto_index(group, path, direction)
            encoded = encode_value(value, direction)
            entries[entry_key(index.index_id, parent, encoded, doc_path, direction)] = (
                doc_path.segments
            )
        if isinstance(value, list):
            index = registry.auto_contains_index(group, path)
            for element in value:
                encoded = encode_value(element, ASCENDING)
                entries[entry_key(index.index_id, parent, encoded, doc_path)] = (
                    doc_path.segments
                )
    return entries


def measure(copies: int) -> tuple[float, float, float]:
    """(plan lines, reference lines, row keys written) per update."""
    db = FirestoreService().create_database("scaling")
    path = "items/d00001"
    doc = {f"{key}{copy}": value for copy in range(copies) for key, value in FIELDS.items()}
    db.commit([set_op(path, {**doc, "n": 0})])
    written = []

    def commits() -> int:
        for n in range(1, UPDATES + 1):
            written.append(db.commit([update_op(path, {"n": n})]).index_entries_written)
        return UPDATES

    plan = lines_per_op(_COUNTED, commits)
    doc_path = Path.parse(path)
    old, new = {**doc, "n": 0}, {**doc, "n": 1}

    def from_scratch() -> int:
        for _ in range(UPDATES):
            before = recompute(db.registry, doc_path, old)
            after = recompute(db.registry, doc_path, new)
            to_delete = [key for key in before if key not in after]
            to_insert = [(key, value) for key, value in after.items() if key not in before]
        assert (to_delete, to_insert) == diff_entries(db.registry, doc_path, old, new)
        return UPDATES

    reference = lines_per_op(_COUNTED, from_scratch)
    return plan, reference, sum(written) / len(written)


def test_update_builds_keys_only_for_the_changed_field():
    sizes = {copies: measure(copies) for copies in (1, 4, 16)}
    for copies, (plan, reference, _) in sizes.items():
        assert plan <= 0.30 * reference, (copies, plan, reference)
    keys = {written for _, _, written in sizes.values()}
    assert keys == {4}, sizes  # n's ascending and descending key, out and in


@pytest.mark.parametrize("copies", [1, 4])
def test_reference_agrees_with_the_plan_on_a_create(copies):
    db = FirestoreService().create_database("agree")
    doc_path = Path.parse("items/d")
    doc = {f"{key}{copy}": value for copy in range(copies) for key, value in FIELDS.items()}
    _, inserted = diff_entries(db.registry, doc_path, None, doc)
    assert dict(inserted) == recompute(db.registry, doc_path, doc)
