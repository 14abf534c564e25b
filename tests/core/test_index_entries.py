import pytest

from repro.errors import InvalidArgument
from repro.core.encoding import ASCENDING, DESCENDING
from repro.core.backend import set_op, update_op
from repro.core.firestore import FirestoreService
from repro.core.index_entries import (
    MAX_ENTRIES_PER_DOCUMENT,
    compute_document_entries,
    composite_entry_values,
    diff_entries,
    entry_key,
    index_id_prefix,
    scan_prefix,
)
from repro.core.indexes import IndexField, IndexMode, IndexRegistry, IndexState
from repro.core.layout import ENTITIES, INDEX_ENTRIES
from repro.core.path import Path


@pytest.fixture
def registry():
    return IndexRegistry()


DOC = Path.parse("restaurants/one")


class TestAutoEntries:
    def test_two_entries_per_scalar_field(self, registry):
        entries = compute_document_entries(registry, DOC, {"city": "SF"})
        assert len(entries) == 2  # asc + desc
        assert all(payload == ("restaurants", "one") for payload in entries.values())

    def test_entries_per_field_scale_linearly(self, registry):
        one = compute_document_entries(registry, DOC, {"f0": 0})
        ten = compute_document_entries(registry, DOC, {f"f{i}": i for i in range(10)})
        assert len(ten) == 10 * len(one)

    def test_map_fields_flatten(self, registry):
        entries = compute_document_entries(
            registry, DOC, {"address": {"city": "SF", "zip": "94000"}}
        )
        # two leaves plus the map node itself, each asc + desc — leaves
        # for dotted-path queries, the node for whole-map equality
        assert len(entries) == 6

    def test_array_fields_add_contains_entries(self, registry):
        entries = compute_document_entries(registry, DOC, {"tags": ["bbq", "cheap"]})
        # whole-array asc + desc, plus one contains entry per element
        assert len(entries) == 4

    def test_array_duplicates_deduplicated(self, registry):
        entries = compute_document_entries(registry, DOC, {"tags": ["a", "a", "a"]})
        assert len(entries) == 3  # asc + desc + single contains

    def test_exempt_fields_produce_nothing(self, registry):
        registry.add_exemption("restaurants", "blob")
        entries = compute_document_entries(registry, DOC, {"blob": "x", "city": "SF"})
        assert len(entries) == 2  # only city

    def test_entries_scoped_by_parent_collection(self, registry):
        restaurant = compute_document_entries(registry, DOC, {"city": "SF"})
        rating = compute_document_entries(
            registry, Path.parse("restaurants/one/ratings/2"), {"city": "SF"}
        )
        assert not set(restaurant) & set(rating)


class TestCompositeEntries:
    def test_doc_missing_field_absent(self, registry):
        registry.create_composite(
            "restaurants", [("city", ASCENDING), ("rating", DESCENDING)],
            state=IndexState.READY,
        )
        entries = compute_document_entries(registry, DOC, {"city": "SF"})
        assert len(entries) == 2  # auto only; composite needs both fields

    def test_full_doc_gets_composite_entry(self, registry):
        definition = registry.create_composite(
            "restaurants", [("city", ASCENDING), ("rating", DESCENDING)],
            state=IndexState.READY,
        )
        entries = compute_document_entries(
            registry, DOC, {"city": "SF", "rating": 4.5}
        )
        composite_keys = [
            key for key in entries if key.startswith(index_id_prefix(definition.index_id))
        ]
        assert len(composite_keys) == 1

    def test_creating_composites_maintained(self, registry):
        definition = registry.create_composite(
            "restaurants", [("a", ASCENDING), ("b", ASCENDING)]
        )
        assert definition.state is IndexState.CREATING
        entries = compute_document_entries(registry, DOC, {"a": 1, "b": 2})
        assert any(
            key.startswith(index_id_prefix(definition.index_id)) for key in entries
        )

    def test_deleting_composites_skipped(self, registry):
        definition = registry.create_composite(
            "restaurants", [("a", ASCENDING), ("b", ASCENDING)], state=IndexState.READY
        )
        registry.set_state(definition.index_id, IndexState.DELETING)
        entries = compute_document_entries(registry, DOC, {"a": 1, "b": 2})
        assert not any(
            key.startswith(index_id_prefix(definition.index_id)) for key in entries
        )

    def test_contains_fan_out(self, registry):
        definition = registry.create_composite(
            "restaurants",
            [IndexField("tags", ASCENDING, IndexMode.CONTAINS), IndexField("r", ASCENDING)],
            state=IndexState.READY,
        )
        values = composite_entry_values(
            definition, {"tags": ["a", "b", "c"], "r": 1}
        )
        assert len(values) == 3

    def test_contains_requires_nonempty_array(self, registry):
        definition = registry.create_composite(
            "restaurants",
            [IndexField("tags", ASCENDING, IndexMode.CONTAINS), IndexField("r", ASCENDING)],
            state=IndexState.READY,
        )
        assert composite_entry_values(definition, {"tags": [], "r": 1}) == []
        assert composite_entry_values(definition, {"tags": "str", "r": 1}) == []


class TestKeysAndDiff:
    def test_entry_key_layout(self):
        parent = Path.parse("restaurants")
        key = entry_key(7, parent, b"VALUES", DOC)
        assert key.startswith(index_id_prefix(7))
        assert b"VALUES" in key
        assert key.startswith(scan_prefix(7, parent))

    def test_scan_prefix_distinguishes_parents(self):
        a = scan_prefix(7, Path.parse("restaurants"))
        b = scan_prefix(7, Path.parse("hotels"))
        assert a != b
        assert a[:4] == b[:4]

    def test_diff(self, registry):
        to_delete, to_insert = diff_entries(
            registry, DOC, {"a": 1, "b": 2}, {"b": 2, "c": 3}
        )
        old = compute_document_entries(registry, DOC, {"a": 1})
        new = compute_document_entries(registry, DOC, {"c": 3})
        assert to_delete == list(old)
        assert to_insert == list(new.items())

    def test_diff_no_change(self, registry):
        data = {"a": 1, "tags": ["x", "x"], "m": {"k": "v"}}
        assert diff_entries(registry, DOC, data, dict(data)) == ([], [])

    @pytest.mark.parametrize(
        "old_value, new_value, changed",
        [
            (True, 1, True),  # equal in Python, distinct keys
            ([True], [1], True),
            (5, 5.0, False),  # equal encodings
            (float("nan"), float("nan"), False),
            (-0.0, 0.0, False),
        ],
    )
    def test_diff_compares_encoded_bytes(self, registry, old_value, new_value, changed):
        to_delete, to_insert = diff_entries(
            registry, DOC, {"f": old_value}, {"f": new_value}
        )
        assert bool(to_delete) is changed and bool(to_insert) is changed

    def test_diff_equals_recomputing_both_documents(self, registry):
        registry.create_composite(
            "restaurants",
            [IndexField("tags", ASCENDING, IndexMode.CONTAINS), IndexField("m", DESCENDING)],
            state=IndexState.READY,
        )
        old = {"tags": ["a", "b", "a"], "m": {"x": 1}, "n": 1}
        new = {"tags": ["b", "c", "b"], "m": {"x": 1, "y": 2}, "n": 1}
        before = compute_document_entries(registry, DOC, old)
        after = compute_document_entries(registry, DOC, new)
        assert diff_entries(registry, DOC, old, new) == (
            [key for key in before if key not in after],
            [(key, payload) for key, payload in after.items() if key not in before],
        )

    def test_unexempted_unchanged_leaf_keeps_its_id_order(self, registry):
        """Old-document leaves are visited (and their ids allocated) before
        new ones even when nothing is written for them."""
        registry.add_exemption("restaurants", "a")
        diff_entries(registry, DOC, None, {"a": 1})
        registry.remove_exemption("restaurants", "a")
        _, to_insert = diff_entries(registry, DOC, {"a": 1}, {"a": 1, "b": 2})
        assert registry.auto_index("restaurants", "a", ASCENDING).index_id == 1
        assert [key[:4] for key, _ in to_insert] == [index_id_prefix(3), index_id_prefix(4)]

    def test_entry_cap_enforced(self, registry):
        data = {"tags": [f"t{i}" for i in range(45_000)]}
        with pytest.raises(InvalidArgument):
            compute_document_entries(registry, DOC, data)


class TestEntryCapOnCommit:
    """A write whose document would exceed MAX_ENTRIES_PER_DOCUMENT fails
    whole: nothing of it reaches Entities or IndexEntries."""

    @staticmethod
    def rows(db) -> list:
        spanner = db.layout.spanner
        start, end = db.layout.directory_range()
        read_ts = spanner.current_timestamp()
        return [
            (table, key, getattr(value, "data", value))
            for table in (ENTITIES, INDEX_ENTRIES)
            for key, value in spanner.snapshot_scan(table, start, end, read_ts)
        ]

    @pytest.fixture
    def db(self):
        db = FirestoreService().create_database("cap")
        db.commit([set_op("items/a", {"n": 1, "tags": [1, 2]})])
        return db

    # asc + desc + one contains entry per distinct element
    TOO_MANY = list(range(MAX_ENTRIES_PER_DOCUMENT))

    def test_set_past_the_cap_is_refused(self, db):
        before = self.rows(db)
        with pytest.raises(InvalidArgument, match="index entries"):
            db.commit([set_op("items/b", {"tags": self.TOO_MANY})])
        assert self.rows(db) == before

    def test_update_past_the_cap_is_refused(self, db):
        before = self.rows(db)
        with pytest.raises(InvalidArgument, match="index entries"):
            db.commit([update_op("items/a", {"tags": self.TOO_MANY})])
        assert self.rows(db) == before
        assert db.lookup("items/a").data == {"n": 1, "tags": [1, 2]}

    def test_the_cap_counts_distinct_entries(self, db):
        # 2 + 39,998 entries: exactly at the cap, with duplicates folded
        tags = list(range(MAX_ENTRIES_PER_DOCUMENT - 2)) + [0, 1]
        db.commit([set_op("items/b", {"tags": tags})])
        assert db.validate().is_clean
