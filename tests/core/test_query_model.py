"""Model test for the query read path: index scans agree with a scan of
the model.

A Hypothesis state machine drives sets, field updates and field deletes,
document deletes, multi-document commits, composite-index creation
(backfilled over the existing documents) and pre-split tablet boundaries
at existing row keys. It issues queries in the benchmark ladder's six
shapes (single-field equality, a three-way zig-zag join, an equality +
range composite scan, a composite top-N, array-contains with a limit and
a count), plus ``order_by`` desc served by reverse-scanning an ascending
index, a descending ``__name__`` scan of the Entities table, limits,
offsets and start/end cursors with and without a document name. Each
query runs

- at the latest timestamp,
- at an earlier commit's timestamp (or just before it), and
- inside ``run_transaction``, which then buffers a write and commits it.

Every result's ordered document ids (or count) must equal a brute-force
filter/sort of the model as of that timestamp.

Mutants this file must kill in ``SpannerDatabase.snapshot_scan``:

1. visibility ignores ``read_ts`` (the newest version is always read);
2. a row whose newest version is a tombstone is yielded;
3. the reverse scan includes its exclusive ``end`` key;
4. the first row after a tablet boundary is dropped.
"""

import functools

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.backend import delete_op, set_op, update_op
from repro.core.firestore import FirestoreService
from repro.core.layout import ENTITIES, INDEX_ENTRIES
from repro.errors import FailedPrecondition
from repro.spanner.splitting import LoadBasedSplitter

DOC_IDS = [f"d{i}" for i in range(8)]
CITIES = ["x", "y"]
STATES = ["CA", "NY"]
TAGS = ["a", "b", "c"]
MAX_TABLETS = 40

#: composite indexes the machine may create: name -> fields
COMPOSITES = {
    "city_age": [("city", "asc"), ("age", "asc")],
    "st_score": [("addr.st", "asc"), ("score", "desc")],
}
#: query shape -> the composite index it needs
REQUIRED_INDEX = {"comp_range": "city_age", "desc_on_asc": "city_age", "top_n": "st_score"}

documents = st.fixed_dictionaries(
    {
        "city": st.sampled_from(CITIES),
        "age": st.integers(min_value=0, max_value=4),
        "active": st.booleans(),
        "addr": st.fixed_dictionaries({"st": st.sampled_from(STATES)}),
        "score": st.one_of(
            st.integers(min_value=0, max_value=3), st.sampled_from([0.5, 1.5, 2.0])
        ),
        "tags": st.lists(st.sampled_from(TAGS), max_size=3, unique=True),
    }
)


@st.composite
def query_specs(draw):
    """A query as data: (shape, filters, orders, limit, offset, cursors).

    ``orders`` are the explicit sort orders; ``cursors`` is a list of
    (method name, values)."""
    shape = draw(
        st.sampled_from(
            ["eq1", "zigzag", "comp_range", "top_n", "contains", "count",
             "desc_on_asc", "name_desc"]
        )
    )
    city = draw(st.sampled_from(CITIES))
    orders: list[tuple[str, str]] = []
    limit = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    offset = draw(st.sampled_from([0, 0, 1]))
    if shape == "eq1":
        filters = [("age", "==", draw(st.integers(min_value=0, max_value=4)))]
    elif shape == "zigzag":
        filters = [
            ("city", "==", city),
            ("active", "==", True),
            ("addr.st", "==", draw(st.sampled_from(STATES))),
        ]
    elif shape == "comp_range":
        low = draw(st.integers(min_value=0, max_value=3))
        filters = [
            ("city", "==", city),
            ("age", ">=", low),
            ("age", "<", low + draw(st.integers(min_value=1, max_value=3))),
        ]
    elif shape == "top_n":
        filters = [("addr.st", "==", draw(st.sampled_from(STATES)))]
        orders = [("score", "desc")]
    elif shape == "contains":
        filters = [("tags", "array-contains", draw(st.sampled_from(TAGS)))]
    elif shape == "count":
        filters = [("city", "==", city)]
    elif shape == "desc_on_asc":
        filters = [("city", "==", city)]
        orders = [("age", "desc")]
    else:  # name_desc
        filters = []
        orders = [("__name__", "desc")]
    cursors = []
    if shape in ("comp_range", "top_n", "desc_on_asc", "name_desc"):
        for kind in ("start", "end"):
            method = draw(
                st.sampled_from(
                    [None, f"{kind}_at", "start_after" if kind == "start" else "end_before"]
                )
            )
            if method is not None:
                # anchored at a document: resolved against the model at the
                # read timestamp, so cursors often land exactly on an entry
                cursors.append((method, draw(st.sampled_from(DOC_IDS)), draw(st.booleans())))
    return shape, filters, orders, limit, offset, cursors


def resolve(spec, docs: dict):
    """The spec with each anchored cursor turned into values: the anchor
    document's sort-order values (fixed ones if it lacks them), plus its
    id when asked for or when the query has no other sort order."""
    shape, filters, orders, limit, offset, anchored = spec
    cursors = []
    for method, anchor, with_name in anchored:
        values = []
        for field, _ in _core_orders(filters, orders):
            present, value = _field(docs.get(anchor, {}), field)
            values.append(value if present else 2)
        if with_name or not values:
            values.append(anchor)
        cursors.append((method, tuple(values)))
    return shape, filters, orders, limit, offset, cursors


def _core_orders(filters, orders) -> list[tuple[str, str]]:
    """Explicit orders without ``__name__``, or the inequality field."""
    core = [order for order in orders if order[0] != "__name__"]
    if not orders:
        core = [(f, "asc") for f, op, _ in filters if op in ("<", "<=", ">", ">=")][:1]
    return core


def build_query(db, spec):
    _, filters, orders, limit, offset, cursors = spec
    query = db.query("items")
    for field, op, value in filters:
        query = query.where(field, op, value)
    for field, direction in orders:
        query = query.order_by(field, direction)
    for method, values in cursors:
        query = getattr(query, method)(*values)
    if limit is not None:
        query = query.limit_to(limit)
    if offset:
        query = query.offset_by(offset)
    return query


def _field(data: dict, dotted: str):
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def _matches(data: dict, field: str, op: str, value) -> bool:
    present, got = _field(data, field)
    if not present:
        return False
    if op == "array-contains":
        return isinstance(got, list) and value in got
    return {
        "==": lambda: got == value,
        "<": lambda: got < value,
        "<=": lambda: got <= value,
        ">": lambda: got > value,
        ">=": lambda: got >= value,
    }[op]()


def _sign(a, b, direction: str) -> int:
    cmp = (a > b) - (a < b)
    return -cmp if direction == "desc" else cmp


def brute_force(docs: dict, spec) -> list[str]:
    """Ordered ids of the query's result over ``docs`` ({id: data})."""
    _, filters, orders, limit, offset, cursors = spec
    core = _core_orders(filters, orders)
    name_direction = orders[-1][1] if orders else core[-1][1] if core else "asc"
    directions = [d for _, d in core] + [name_direction]
    rows = []
    for doc_id, data in docs.items():
        if not all(_matches(data, f, op, v) for f, op, v in filters):
            continue
        key = []
        for field, _ in core:
            present, value = _field(data, field)
            if not present:
                break
            key.append(value)
        else:
            rows.append((tuple(key) + (doc_id,), doc_id))

    def order(a, b) -> int:
        for x, y, direction in zip(a[0], b[0], directions):
            if (cmp := _sign(x, y, direction)) != 0:
                return cmp
        return 0

    def position(row, cursor) -> int:
        """Where the row sits against the cursor, in query order."""
        for x, y, direction in zip(row[0], cursor, directions):
            if (cmp := _sign(x, y, direction)) != 0:
                return cmp
        return 0

    rows.sort(key=functools.cmp_to_key(order))
    keep = {
        "start_at": lambda p: p >= 0,
        "start_after": lambda p: p > 0,
        "end_at": lambda p: p <= 0,
        "end_before": lambda p: p < 0,
    }
    for method, values in cursors:
        rows = [row for row in rows if keep[method](position(row, values))]
    ids = [doc_id for _, doc_id in rows][offset:]
    return ids[:limit] if limit is not None else ids


class QueryModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = FirestoreService().create_database("model")
        self.spanner = self.db.layout.spanner
        #: every committed state, oldest first: (commit_ts, {id: data})
        self.versions: list[tuple[int, dict]] = [(0, {})]
        #: composite index name -> first timestamp it can serve
        self.ready: dict[str, int] = {}

    @property
    def docs(self) -> dict:
        return self.versions[-1][1]

    def at(self, read_ts: int) -> dict:
        for commit_ts, docs in reversed(self.versions):
            if commit_ts <= read_ts:
                return docs
        raise AssertionError(f"no model version at {read_ts}")

    def commit(self, writes) -> None:
        """Commit (op, id, data) writes and advance the model."""
        docs = {doc_id: dict(data) for doc_id, data in self.docs.items()}
        ops = []
        for kind, doc_id, data in writes:
            path = f"items/{doc_id}"
            if kind == "set":
                ops.append(set_op(path, data))
                docs[doc_id] = data
            elif kind == "update":
                ops.append(update_op(path, {"age": data["age"]}, ("score",)))
                docs[doc_id] = {
                    **{k: v for k, v in docs[doc_id].items() if k != "score"},
                    "age": data["age"],
                }
            else:
                ops.append(delete_op(path))
                docs.pop(doc_id, None)
        outcome = self.db.commit(ops)
        self.versions.append((outcome.commit_ts, docs))

    # -- writes ------------------------------------------------------------------

    @initialize(
        initial=st.lists(
            st.tuples(st.sampled_from(DOC_IDS), documents),
            min_size=3,
            max_size=8,
            unique_by=lambda write: write[0],
        )
    )
    def load(self, initial):
        self.commit([("set", doc_id, data) for doc_id, data in initial])

    @rule(doc_id=st.sampled_from(DOC_IDS), data=documents)
    def set_doc(self, doc_id, data):
        self.commit([("set", doc_id, data)])

    @rule(doc_id=st.sampled_from(DOC_IDS), age=st.integers(min_value=0, max_value=4))
    def update_doc(self, doc_id, age):
        """Set ``age`` and delete ``score`` (the doc leaves the score index)."""
        if doc_id in self.docs:
            self.commit([("update", doc_id, {"age": age})])

    @rule(doc_id=st.sampled_from(DOC_IDS))
    def delete_doc(self, doc_id):
        self.commit([("delete", doc_id, None)])

    @rule(
        writes=st.lists(
            st.tuples(st.sampled_from(DOC_IDS), st.one_of(st.none(), documents)),
            min_size=2,
            max_size=4,
            unique_by=lambda write: write[0],
        )
    )
    def multi_doc_commit(self, writes):
        self.commit(
            [("set", doc_id, data) if data is not None else ("delete", doc_id, None)
             for doc_id, data in writes]
        )

    @rule(name=st.sampled_from(sorted(COMPOSITES)))
    def create_index(self, name):
        if name in self.ready:
            return
        self.db.create_index("items", COMPOSITES[name])
        # entries backfilled for older documents are stamped now
        self.ready[name] = self.spanner.current_timestamp()

    @rule(
        stride=st.integers(min_value=2, max_value=12),
        first=st.integers(min_value=0, max_value=11),
    )
    def pre_split(self, stride, first):
        """Put tablet boundaries at every ``stride``-th document or
        index-entry row, so most scans cross one."""
        room = MAX_TABLETS - len(self.spanner.tablets)
        tags = {self.spanner.table(name).tag for name in (ENTITIES, INDEX_ENTRIES)}
        keys = [
            key
            for tablet in self.spanner.tablets
            for key in tablet.rows.keys()
            if key[0] in tags
        ]
        if room > 0:
            LoadBasedSplitter(self.spanner).pre_split(keys[first::stride][:room])

    # -- reads ------------------------------------------------------------------

    def run(self, spec, **kwargs):
        query = build_query(self.db, spec)
        if spec[0] == "count":
            return self.db.run_count(query, **kwargs)[0]
        result = self.db.run_query(query, **kwargs)
        assert not result.partial
        return [doc.path.id for doc in result.documents]

    def expected(self, spec, docs):
        ids = brute_force(docs, spec)
        return len(ids) if spec[0] == "count" else ids

    @rule(spec=query_specs())
    def query_latest(self, spec):
        spec = resolve(spec, self.docs)
        index = REQUIRED_INDEX.get(spec[0])
        if index is not None and index not in self.ready:
            with pytest.raises(FailedPrecondition):
                self.run(spec)
            return
        assert self.run(spec) == self.expected(spec, self.docs), spec

    @rule(spec=query_specs(), pick=st.integers(min_value=0), just_before=st.booleans())
    def query_at_earlier_commit(self, spec, pick, just_before):
        commit_ts, _ = self.versions[pick % len(self.versions)]
        read_ts = max(0, commit_ts - 1) if just_before else commit_ts
        index = REQUIRED_INDEX.get(spec[0])
        if index is not None and self.ready.get(index, read_ts + 1) > read_ts:
            return  # the index has no entries stamped that early
        docs = self.at(read_ts)
        spec = resolve(spec, docs)
        got = self.run(spec, read_ts=read_ts)
        assert got == self.expected(spec, docs), (spec, read_ts)

    @rule(spec=query_specs(), doc_id=st.sampled_from(DOC_IDS), data=documents)
    def query_in_transaction(self, spec, doc_id, data):
        index = REQUIRED_INDEX.get(spec[0])
        if spec[0] == "count" or (index is not None and index not in self.ready):
            return
        spec = resolve(spec, self.docs)
        expected = self.expected(spec, self.docs)

        def body(ctx):
            result = ctx.query(build_query(self.db, spec))
            ctx.set(f"items/{doc_id}", data)
            return [doc.path.id for doc in result.documents]

        assert self.db.run_transaction(body) == expected, spec
        snapshot = self.db.lookup(f"items/{doc_id}")
        docs = dict(self.docs)
        docs[doc_id] = data
        self.versions.append((snapshot.document.update_time, docs))


QueryModel.TestCase.settings = settings(
    max_examples=80,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestQueryModel = QueryModel.TestCase
