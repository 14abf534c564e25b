"""Model test for the real-time path: every delivered snapshot against a
dict model of every commit.

A Hypothesis state machine drives sets, field updates, same-data
re-sets, deletes and multi-document commits, and listens (equality,
``order_by`` desc, ``limit``), unlistens, connection closes, Frontend
crashes and pumps. Each delivered delta is checked as it arrives:

- ``documents`` equals a brute-force filter/sort of the model at the
  delta's ``read_ts``, ``update_time``/``create_time`` included;
- ``added``/``modified``/``removed`` equal the diff from that listener's
  previous snapshot;
- after every pump, each listener's view equals a fresh query.

``test_delta_streams_are_pinned`` replays fixed seeds and pins the md5 of
the whole delta stream, ``removed`` order included, so an incremental
path can be checked byte-for-byte against the full re-diff it replaced.

Mutants this file must kill in ``realtime/frontend.py`` and
``realtime/matcher.py``:

1. a stale cached ``documents`` entry (a touched document whose delta is
   empty keeps its old ``update_time``);
2. ``removed`` in touch order instead of the pre-apply result order;
3. the matcher's equality index probing only ``new_data`` (a document
   leaving a result set is never forwarded);
4. limit-trim evictions left out of the touched paths (never removed).
"""

import hashlib
import json
import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.backend import delete_op, set_op, update_op
from repro.core.firestore import FirestoreService
from repro.errors import NotFound

DOC_IDS = [f"d{i}" for i in range(6)]
CITIES = ["x", "y"]
TICK_US = 100_000

#: name -> (equality city or None, order by n desc, limit or None)
QUERIES = {
    "all": (None, False, None),
    "eq": ("x", False, None),
    "desc": (None, True, None),
    "eq_desc": ("y", True, None),
    "limit": (None, True, 3),
    "eq_limit": ("x", False, 2),
}


def build_query(db, name: str):
    city, desc, limit = QUERIES[name]
    query = db.query("docs")
    if city is not None:
        query = query.where("city", "==", city)
    if desc:
        query = query.order_by("n", "desc")
    if limit is not None:
        query = query.limit_to(limit)
    return query


def brute_force(docs: dict, name: str) -> list[tuple]:
    """(id, data, create_ts, update_ts) of the query's result over ``docs``."""
    city, desc, limit = QUERIES[name]
    rows = [
        (doc_id, data, created, updated)
        for doc_id, (data, created, updated) in docs.items()
        if (city is None or data.get("city") == city) and (not desc or "n" in data)
    ]
    if desc:
        # the implicit __name__ tiebreak follows the last explicit order
        rows.sort(key=lambda row: (row[1]["n"], row[0]), reverse=True)
    else:
        rows.sort(key=lambda row: row[0])
    return rows[:limit] if limit is not None else rows


def doc_row(doc) -> tuple:
    return (doc.path.id, doc.data, doc.create_time, doc.update_time)


class RealtimeHarness:
    """The system under test plus its model; every operation the state
    machine and the fixed-seed schedule apply goes through here."""

    def __init__(self):
        self.db = FirestoreService().create_database("model")
        self.db.create_index("docs", [("city", "asc"), ("n", "desc")])
        #: every committed state, oldest first: (commit_ts, {id: (data, ct, ut)})
        self.versions: list[tuple[int, dict]] = [(0, {})]
        self.connections: list = [None, None]
        #: live listeners: (slot, tag) -> listener record
        self.listeners: dict[tuple[int, object], dict] = {}
        #: every delivered delta, for the pinned md5
        self.stream: list = []

    @property
    def docs(self) -> dict:
        return self.versions[-1][1]

    def at(self, read_ts: int) -> dict:
        for commit_ts, docs in reversed(self.versions):
            if commit_ts <= read_ts:
                return docs
        raise AssertionError(f"no model version at {read_ts}")

    # -- writes ------------------------------------------------------------------

    def commit(self, writes: list[tuple[str, str, dict | None]]) -> None:
        """Commit (kind, id, data) writes; the model follows on success."""
        ops = []
        for kind, doc_id, data in writes:
            path = f"docs/{doc_id}"
            if kind == "set":
                ops.append(set_op(path, data))
            elif kind == "update":
                ops.append(update_op(path, data))
            else:
                ops.append(delete_op(path))
        try:
            outcome = self.db.commit(ops)
        except NotFound:
            return  # an update of a missing document: nothing committed
        docs = dict(self.docs)
        for kind, doc_id, data in writes:
            existing = docs.get(doc_id)
            created = existing[1] if existing is not None else outcome.commit_ts
            if kind == "set":
                docs[doc_id] = (dict(data), created, outcome.commit_ts)
            elif kind == "update":
                docs[doc_id] = ({**existing[0], **data}, created, outcome.commit_ts)
            else:
                docs.pop(doc_id, None)
        self.versions.append((outcome.commit_ts, docs))

    def same_data(self, doc_id: str) -> None:
        if doc_id in self.docs:
            self.commit([("set", doc_id, dict(self.docs[doc_id][0]))])

    # -- listeners -----------------------------------------------------------------

    def listen(self, slot: int, name: str) -> None:
        connection = self.connections[slot]
        if connection is None:
            connection = self.connections[slot] = self.db.connect()
        listener = {
            "name": name,
            "query": build_query(self.db, name),
            "last": {},  # id -> row of the last delivered snapshot
            "view": {},  # id -> data, accumulated from deltas
            "index": len(self.stream),
        }
        tag = connection.listen(
            listener["query"], lambda delta: self.on_delta(listener, delta)
        )
        self.listeners[(slot, tag)] = listener

    def unlisten(self, pick: int) -> None:
        if not self.listeners:
            return
        slot, tag = sorted(self.listeners, key=repr)[pick % len(self.listeners)]
        self.connections[slot].unlisten(tag)
        del self.listeners[(slot, tag)]

    def close(self, slot: int) -> None:
        connection = self.connections[slot]
        if connection is None:
            return
        connection.close()
        self.connections[slot] = None
        for key in [key for key in self.listeners if key[0] == slot]:
            del self.listeners[key]

    def crash(self) -> None:
        self.db.frontend.crash()

    def pump(self) -> None:
        self.db.service.clock.advance(TICK_US)
        self.db.pump_realtime()
        for listener in self.listeners.values():
            fresh = {
                doc.path.id: doc.data
                for doc in self.db.run_query(listener["query"]).documents
            }
            assert listener["view"] == fresh, listener["name"]

    def on_delta(self, listener: dict, delta) -> None:
        documents = [doc_row(doc) for doc in delta.documents]
        assert documents == brute_force(self.at(delta.read_ts), listener["name"])
        previous = listener["last"]
        current = {row[0]: row for row in documents}
        added = [row for row in documents if row[0] not in previous]
        modified = [
            row
            for row in documents
            if row[0] in previous and previous[row[0]][1] != row[1]
        ]
        removed = [path.id for path in delta.removed]
        assert [doc_row(doc) for doc in delta.added] == added
        assert [doc_row(doc) for doc in delta.modified] == modified
        assert len(removed) == len(set(removed))
        assert set(removed) == set(previous) - set(current)
        listener["last"] = current
        view = listener["view"]
        for doc in delta.added + delta.modified:
            view[doc.path.id] = doc.data
        for path in delta.removed:
            view.pop(path.id, None)
        self.stream.append(
            [
                listener["index"],
                delta.read_ts,
                delta.is_initial,
                [doc_row(doc) for doc in delta.added],
                [doc_row(doc) for doc in delta.modified],
                removed,
                documents,
            ]
        )


def document(rng: random.Random) -> dict:
    data = {"city": rng.choice(CITIES)}
    if rng.random() < 0.8:
        data["n"] = rng.randrange(10)
    return data


class RealtimeModel(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.harness = RealtimeHarness()

    @rule(doc_id=st.sampled_from(DOC_IDS), city=st.sampled_from(CITIES),
          n=st.none() | st.integers(0, 9))
    def set_doc(self, doc_id, city, n):
        data = {"city": city} if n is None else {"city": city, "n": n}
        self.harness.commit([("set", doc_id, data)])

    @rule(doc_id=st.sampled_from(DOC_IDS), n=st.integers(0, 9))
    def update_doc(self, doc_id, n):
        self.harness.commit([("update", doc_id, {"n": n})])

    @rule(doc_id=st.sampled_from(DOC_IDS))
    def same_data(self, doc_id):
        self.harness.same_data(doc_id)

    @rule(doc_id=st.sampled_from(DOC_IDS))
    def delete_doc(self, doc_id):
        self.harness.commit([("delete", doc_id, None)])

    @rule(
        doc_ids=st.lists(st.sampled_from(DOC_IDS), min_size=2, max_size=3, unique=True),
        city=st.sampled_from(CITIES),
        n=st.integers(0, 9),
        delete_first=st.booleans(),
    )
    def multi_doc(self, doc_ids, city, n, delete_first):
        writes = [("set", doc_id, {"city": city, "n": n + i}) for i, doc_id in enumerate(doc_ids)]
        if delete_first:
            writes[0] = ("delete", doc_ids[0], None)
        self.harness.commit(writes)

    @rule(slot=st.integers(0, 1), name=st.sampled_from(sorted(QUERIES)))
    def listen(self, slot, name):
        self.harness.listen(slot, name)

    @rule(pick=st.integers(0, 20))
    def unlisten(self, pick):
        self.harness.unlisten(pick)

    @rule(slot=st.integers(0, 1))
    def close(self, slot):
        self.harness.close(slot)

    @rule()
    def crash(self):
        self.harness.crash()

    @rule()
    def pump(self):
        self.harness.pump()

    @invariant()
    def views_match_last_snapshot(self):
        for listener in self.harness.listeners.values():
            assert listener["view"] == {
                doc_id: row[1] for doc_id, row in listener["last"].items()
            }


RealtimeModel.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRealtimeModel = RealtimeModel.TestCase


# -- pinned delta streams -----------------------------------------------------------


def drive(seed: int, steps: int = 80) -> RealtimeHarness:
    """A fixed random schedule of the state machine's operations."""
    rng = random.Random(seed)
    harness = RealtimeHarness()
    for doc_id in DOC_IDS[:4]:
        harness.commit([("set", doc_id, document(rng))])
    for name in sorted(QUERIES):
        harness.listen(rng.randrange(2), name)
    for _ in range(steps):
        roll = rng.random()
        doc_id = rng.choice(DOC_IDS)
        if roll < 0.25:
            harness.commit([("set", doc_id, document(rng))])
        elif roll < 0.40:
            harness.commit([("update", doc_id, {"n": rng.randrange(10)})])
        elif roll < 0.48:
            harness.same_data(doc_id)
        elif roll < 0.58:
            harness.commit([("delete", doc_id, None)])
        elif roll < 0.66:
            others = rng.sample(DOC_IDS, 2)
            harness.commit([("set", other, document(rng)) for other in others])
        elif roll < 0.70:
            harness.listen(rng.randrange(2), rng.choice(sorted(QUERIES)))
        elif roll < 0.72:
            harness.unlisten(rng.randrange(20))
        elif roll < 0.73:
            harness.close(rng.randrange(2))
        elif roll < 0.75:
            harness.crash()
        else:
            harness.pump()
    harness.pump()
    return harness


def stream_md5(seed: int) -> str:
    stream = drive(seed).stream
    return hashlib.md5(json.dumps(stream, sort_keys=True).encode()).hexdigest()


#: md5 of each seed's stream. The full-re-diff Frontend that the
#: incremental path replaced produced these same values, once given the
#: fixes this file pins (true ``create_time`` on entry, the two
#: limited-window resets, connect-ordered delivery); without the last its
#: stream is not even stable across processes.
PINNED = {
    0: "fb79fac9fcd675b162ef12ad21bae64a",
    1: "9422f325e2bb7ddfa7d0f92694175bf0",
    2: "2ec248f7e2a40b1e8fa9da3720918d4d",
    3: "9c0fde6923a8aa2862607d4fe6a4c72f",
    4: "802a279200a2d4d70c7882972ae66eaf",
    5: "3af6671e3e084468f3f2fd255907f3c5",
    6: "a14688d2113bb54c46d91fb14c2099f7",
    7: "8e0717b6ae7760b05935a59c49995d22",
    8: "d0cfc73fa2a7940a5707b2c983cdd277",
    9: "f9a02a11e3b7685d3a044866dcb6e862",
}


def test_delta_streams_are_pinned():
    assert {seed: stream_md5(seed) for seed in PINNED} == PINNED


def test_same_data_update_refreshes_cached_update_time():
    harness = RealtimeHarness()
    harness.commit([("set", "a", {"city": "x"}), ("set", "b", {"city": "x"})])
    harness.listen(0, "eq")
    harness.same_data("a")
    harness.pump()
    harness.commit([("update", "b", {"n": 1})])
    harness.pump()
    last = harness.stream[-1]
    assert [row[0] for row in last[4]] == ["b"]
    assert last[6][0][3] == harness.docs["a"][2]


def test_member_leaving_a_full_limited_result_resets_against_last_view():
    harness = RealtimeHarness()
    for doc_id in "abc":
        harness.commit([("set", doc_id, {"city": "x"})])
    harness.listen(0, "eq_limit")
    harness.commit([("update", "b", {"n": 2})])
    harness.commit([("delete", "a", None)])
    harness.pump()
    _, _, initial, added, modified, removed, _ = harness.stream[-1]
    assert initial  # a reset is delivered as an initial snapshot
    assert [row[0] for row in added] == ["c"]
    assert [row[0] for row in modified] == ["b"]
    assert removed == ["a"]


def test_member_moving_past_a_full_limited_window_resets():
    harness = RealtimeHarness()
    for doc_id, n in zip("abcd", (9, 8, 7, 6)):
        harness.commit([("set", doc_id, {"city": "x", "n": n})])
    harness.listen(0, "limit")
    harness.commit([("update", "a", {"n": 1})])
    harness.pump()
    _, _, _, added, modified, removed, documents = harness.stream[-1]
    assert [row[0] for row in documents] == ["b", "c", "d"]
    assert [row[0] for row in added] == ["d"]
    assert modified == [] and removed == ["a"]
