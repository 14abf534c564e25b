"""The functional workloads: one closed-loop client on the in-process stack.

``crud``/``lookup`` (point reads and commits under security rules),
``query`` (six query shapes over two composite indexes) and ``listen``
(64 real-time listeners watching a stream of commits). Each keeps a
harness-side model of the documents and checks every output against it.
Inputs are generated from the seed in ``setup`` so the timed loop only
calls the public API and records what came back.
"""

from __future__ import annotations

import functools
import random
from time import perf_counter_ns

from benchmarks.ladder.workload import SPARE, Workload

from repro import (
    AuthContext,
    FirestoreService,
    create_op,
    delete_op,
    set_op,
    update_op,
)
from repro.core.layout import ENTITIES, INDEX_ENTRIES
from repro.core.serialization import serialize_document
from repro.errors import FirestoreError

STATES = ("CA", "NY", "WA", "TX")
TAGS = "abcdefghijklmnop"
_WORDS = (
    "serverless document database realtime query index snapshot commit "
    "listener tablet replica region latency throughput billing rules "
).split()

#: one ``get()`` per authorization: the caller's role document
RULES = """
service cloud.firestore {
  match /databases/{database}/documents {
    match /items/{id} {
      allow read, write: if get(/databases/$(database)/documents/roles/$(request.auth.uid)).data.role == 'editor';
    }
  }
}
"""

LOOKUP, UPDATE, SET, CREATE, DELETE = range(5)

PRELOAD_BATCH = 20
#: every segment of a workload does the same work (same op mix, same
#: queries, same documents touched), so that the third-best segment picks
#: out an undisturbed stretch of the run, not a lucky draw of inputs
SEGMENTS = 40


def make_doc(rng: random.Random, index: int, cities: int, ages: int) -> dict:
    """One eight-field document: string, int, float, bool, 3-array,
    nested map, 100-400 B of text, and a counter the updates bump.

    The fields queries filter on (``city``, ``addr.st``, ``active``,
    ``age``, ``tags``) are dealt out by ``index`` in mixed radix, so every
    combination of them has the same number of documents whatever the
    seed; the seed draws the rest (score, zip, text).
    """
    length = rng.randrange(100, 401)
    words = []
    size = 0
    while size < length:
        word = rng.choice(_WORDS)
        words.append(word)
        size += len(word) + 1
    tags = [TAGS[(index + 5 * k) % len(TAGS)] for k in range(3)]
    index, city = divmod(index, cities)
    index, state = divmod(index, len(STATES))
    index, active = divmod(index, 2)
    return {
        "city": f"city{city:02d}",
        "age": 18 + index % ages,
        "score": rng.random() * 100.0,
        "active": active == 0,
        "tags": tags,
        "addr": {"st": STATES[state], "zip": rng.randrange(10000, 100000)},
        "text": " ".join(words)[:length],
        "n": 0,
    }


def doc_id(path: str) -> str:
    return path.rpartition("/")[2]


def segment_count(units: int) -> int:
    """How many equal segments ``units`` timed units are cut into."""
    return max(1, min(SEGMENTS, units // 8))


class _DocumentWorkload(Workload):
    """Shared set-up: a service, one database, ``docs`` preloaded documents."""

    cities = 8

    def preload(self, rng: random.Random) -> None:
        """Build the service and commit the documents in 20-write batches."""
        self.city_names = [f"city{i:02d}" for i in range(self.cities)]
        #: distinct ages, so that each has one document per
        #: (city, state, active) combination
        self.ages = max(1, self.size.docs // (self.cities * len(STATES) * 2))
        self.service = FirestoreService(region="nam5")
        self.db = self.service.create_database("ladder")
        self.model: dict[str, dict] = {}
        paths = [f"items/d{i:05d}" for i in range(self.size.docs)]
        for start in range(0, len(paths), PRELOAD_BATCH):
            writes = []
            for index, path in enumerate(paths[start : start + PRELOAD_BATCH], start):
                data = self.new_doc(rng, index)
                self.model[path] = data
                writes.append(set_op(path, data))
            self.db.commit(writes)

    def new_doc(self, rng: random.Random, index: int) -> dict:
        return make_doc(rng, index, self.cities, self.ages)

    def check_final_state(self) -> None:
        """Stored documents equal the model, doc by doc; validation clean."""
        stored = {
            str(doc.path): doc.data
            for doc in self.db.run_query(self.db.query("items")).documents
        }
        self.expect(
            stored.keys() == self.model.keys(), "final key set differs from model"
        )
        for path, data in self.model.items():
            if stored.get(path) != data:
                self.fail(f"final state of {path} differs from model")
        self.expect(self.db.validate().is_clean, "db.validate() found problems")

    def storage_counts(self) -> None:
        """Rows and bytes Spanner holds for the user's documents."""
        spanner = self.db.layout.spanner
        start, end = self.db.layout.directory_range()
        read_ts = spanner.current_timestamp()
        rows = stored = 0
        for table in (ENTITIES, INDEX_ENTRIES):
            for key, value in spanner.snapshot_scan(table, start, end, read_ts):
                rows += 1
                payload = getattr(value, "data", value)
                stored += len(key) + (
                    len(payload) if isinstance(payload, (bytes, bytearray)) else 0
                )
        user = sum(len(serialize_document(d)) for d in self.model.values())
        docs = len(self.model)
        self.counts["spanner.rows_per_doc"] = rows / docs
        self.counts["spanner.storage_bytes_per_user_byte"] = stored / user


class Crud(_DocumentWorkload):
    """Point reads and single-document commits, every op under rules."""

    headline = "write"
    mix = {LOOKUP: 0.50, UPDATE: 0.40, SET: 0.05, CREATE: 0.025, DELETE: 0.025}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.preload(rng)
        self.db.set_rules(RULES)
        self.db.commit([set_op("roles/alice", {"role": "editor"})])
        self.auth = AuthContext(uid="alice")
        self.planned = segment_count(self.size.ops)
        length = self.size.ops // self.planned
        # the same number of ops of each kind in every segment, shuffled
        codes = []
        for code, share in self.mix.items():
            codes.extend([code] * round(length * share))
        codes.extend([LOOKUP] * (length - len(codes)))
        live = list(self.model)
        created = stamp = 0
        self.plan = []
        for _ in range(self.planned * SPARE):
            rng.shuffle(codes)
            segment = []
            for code in codes[:length]:
                slot = rng.randrange(len(live))
                stamp += 1
                if code == LOOKUP:
                    segment.append((LOOKUP, live[slot], None))
                elif code == UPDATE:
                    fields = {"n": stamp, "age": rng.randrange(18, 80)}
                    segment.append((UPDATE, live[slot], fields))
                elif code == SET:
                    segment.append((SET, live[slot], self.new_doc(rng, stamp)))
                elif code == CREATE:
                    path = f"items/n{created:05d}"
                    created += 1
                    live.append(path)
                    segment.append((CREATE, path, self.new_doc(rng, stamp)))
                else:
                    live[slot], live[-1] = live[-1], live[slot]
                    segment.append((DELETE, live.pop(), None))
            self.plan.append(segment)
        self.entries = self.participants = 0

    def run_segment(self, index: int, tracer=None) -> None:
        db, auth, model = self.db, self.auth, self.model
        begin, end = self.op_hooks(tracer)
        reads, writes = self.samples["read"], self.samples["write"]
        segment = self.plan[index]
        stamps = []
        clock = perf_counter_ns
        segment_start = clock()
        for code, path, data in segment:
            opened = begin()
            start = clock()
            try:
                if code == LOOKUP:
                    result = db.lookup(path, auth=auth)
                elif code == UPDATE:
                    result = db.commit([update_op(path, data)], auth=auth)
                elif code == SET:
                    result = db.commit([set_op(path, data)], auth=auth)
                elif code == CREATE:
                    result = db.commit([create_op(path, data)], auth=auth)
                else:
                    result = db.commit([delete_op(path)], auth=auth)
            except FirestoreError as error:
                end(opened)
                self.fail(f"op {code} on {path} raised {error!r}")
                continue
            stop = clock()
            end(opened)
            if code == LOOKUP:
                reads.append(stop - start)
                if result.data != model.get(path):
                    self.fail(f"lookup {path} differs from model")
                stamps.append(result.document.update_time if result.exists else 0)
                continue
            writes.append(stop - start)
            stamps.append(result.commit_ts)
            self.entries += result.index_entries_written
            self.participants += result.participants
            if code == UPDATE:
                model[path].update(data)
            elif code == DELETE:
                del model[path]
            else:
                model[path] = data
        self.close_segment(len(segment), clock() - segment_start, stamps)

    def finish(self) -> None:
        commits = max(1, len(self.samples["write"]))
        self.counts["core.index_entries.entries_per_commit"] = self.entries / commits
        self.counts["spanner.transaction.participants_per_commit"] = (
            self.participants / commits
        )

    def verify(self) -> None:
        self.check_final_state()
        self.storage_counts()


class Lookup(Crud):
    """The same stack read-mostly: 95% lookup, 5% update."""

    headline = "read"
    mix = {LOOKUP: 0.95, UPDATE: 0.05}


# -- query ---------------------------------------------------------------------

SHAPES = ("eq1", "zigzag", "comp_range", "top20", "contains", "count")


class Query(_DocumentWorkload):
    """Privileged queries, round-robin over six shapes; one timed unit is
    one round of the six, so the latency distribution has one mode."""

    headline = "round"
    calls_per_sample = len(SHAPES)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.preload(rng)
        self.db.create_index("items", [("city", "asc"), ("age", "asc")])
        self.db.create_index("items", [("addr.st", "asc"), ("score", "desc")])
        self._expected: dict[tuple, object] = {}
        #: the model never changes here: (id, data) in name order, once
        self._docs_by_name = sorted(
            (doc_id(path), data) for path, data in self.model.items()
        )
        rounds = max(1, self.size.ops // len(SHAPES))
        self.planned = segment_count(rounds)
        #: one segment's rounds, each one (key, query) per shape, built
        #: outside the timing; every segment replays the same rounds
        self.rounds = []
        for _ in range(rounds // self.planned):
            keys = [self.draw(shape, rng) for shape in SHAPES]
            self.rounds.append([(key, self.build(key)) for key in keys])
        self.results = []
        self.docs_returned = 0

    def draw(self, shape: str, rng: random.Random) -> tuple:
        """Parameters of one query of ``shape`` (a hashable key)."""
        city = rng.choice(self.city_names)
        if shape == "eq1":
            return (shape, 18 + rng.randrange(self.ages))
        if shape == "zigzag":
            return (shape, city, rng.choice(STATES))
        if shape == "comp_range":
            low = 18 + rng.randrange(max(1, self.ages - 4))
            return (shape, city, low, low + 5)
        if shape == "top20":
            return (shape, rng.choice(STATES))
        if shape == "contains":
            return (shape, rng.choice(TAGS))
        return (shape, city)

    def build(self, key: tuple):
        base = self.db.query("items")
        shape = key[0]
        if shape == "eq1":
            return base.where("age", "==", key[1])
        if shape == "zigzag":
            return (
                base.where("city", "==", key[1])
                .where("active", "==", True)
                .where("addr.st", "==", key[2])
            )
        if shape == "comp_range":
            return (
                base.where("city", "==", key[1])
                .where("age", ">=", key[2])
                .where("age", "<", key[3])
            )
        if shape == "top20":
            return (
                base.where("addr.st", "==", key[1])
                .order_by("score", "desc")
                .limit_to(20)
            )
        if shape == "contains":
            return base.where("tags", "array-contains", key[1]).limit_to(50)
        return base.where("city", "==", key[1])

    def expected(self, key: tuple):
        """Brute force over the model, once per distinct query."""
        if key not in self._expected:
            self._expected[key] = self.brute_force(key)
        return self._expected[key]

    def brute_force(self, key: tuple):
        """Ordered ids of the matching model documents, or their count."""
        docs = self._docs_by_name
        shape = key[0]
        if shape == "eq1":
            return [i for i, d in docs if d["age"] == key[1]]
        if shape == "zigzag":
            return [
                i
                for i, d in docs
                if d["city"] == key[1] and d["active"] and d["addr"]["st"] == key[2]
            ]
        if shape == "comp_range":
            hits = [
                (d["age"], i)
                for i, d in docs
                if d["city"] == key[1] and key[2] <= d["age"] < key[3]
            ]
            return [i for _, i in sorted(hits)]
        if shape == "top20":
            hits = [(d["score"], i) for i, d in docs if d["addr"]["st"] == key[1]]
            return [i for _, i in sorted(hits, reverse=True)[:20]]
        if shape == "contains":
            return [i for i, d in docs if key[1] in d["tags"]][:50]
        return sum(1 for _, d in docs if d["city"] == key[1])

    def run_segment(self, index: int, tracer=None) -> None:
        db = self.db
        begin, end = self.op_hooks(tracer)
        per_shape = {shape: self.samples[shape] for shape in SHAPES}
        rounds = self.samples["round"]
        results = []
        clock = perf_counter_ns
        segment_start = clock()
        for queries in self.rounds:
            round_ns = 0
            for key, query in queries:
                opened = begin()
                start = clock()
                if key[0] == "count":
                    got = db.run_count(query)[0]
                else:
                    got = db.run_query(query).documents
                stop = clock()
                end(opened)
                per_shape[key[0]].append(stop - start)
                round_ns += stop - start
                results.append((key, got))
            rounds.append(round_ns)
        wall = clock() - segment_start
        output = [
            (key, got if key[0] == "count" else [doc.path.id for doc in got])
            for key, got in results
        ]
        self.results.extend(output)
        self.close_segment(len(results), wall, output)

    def finish(self) -> None:
        queries = [got for key, got in self.results if key[0] != "count"]
        self.docs_returned = sum(len(got) for got in queries)
        self.counts["core.executor.docs_per_query"] = self.docs_returned / max(
            1, len(queries)
        )

    def verify(self) -> None:
        for key, got in self.results:
            if got != self.expected(key):
                self.fail(f"query {key} differs from brute force over the model")
        self.storage_counts()


# -- listen ----------------------------------------------------------------------

CONNECTIONS = 8
LISTENERS_PER_CONNECTION = 8
TICK_US = 100_000
HOT_EVERY = 10


class Listen(_DocumentWorkload):
    """64 real-time listeners, mostly bystanders, over a stream of commits.

    Every connection's first two listeners watch the hot document's city
    (16 share it); the other 48 each watch a city of their own. Half the
    listeners add ``active == true``. Cities and ``active`` are dealt out
    round-robin, so result-set sizes do not depend on the seed; updates
    never move a document in or out of a result set, so the model can
    predict every delivery.
    """

    headline = "notify"
    cities = 60

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.preload(rng)
        self.hot = next(iter(self.model))  # city00, active
        hot_city = self.city_names[0]
        others = iter(self.city_names[1:])
        #: per listener: (city, active filter or None, view, delivered count)
        self.listeners = []
        for _ in range(CONNECTIONS):
            connection = self.db.connect()
            for slot in range(LISTENERS_PER_CONNECTION):
                city = hot_city if slot < 2 else next(others)
                active = True if slot % 2 else None
                query = self.db.query("items").where("city", "==", city)
                if active:
                    query = query.where("active", "==", True)
                state = {"city": city, "active": active, "view": {}, "got": 0}
                state["query"] = query
                self.listeners.append(state)
                connection.listen(query, functools.partial(self.on_delta, state))
        paths = list(self.model)
        self.planned = segment_count(self.size.ops)
        # every segment updates the same documents, with fresh values
        touched = [
            self.hot if tick % HOT_EVERY == 0 else rng.choice(paths)
            for tick in range(self.size.ops // self.planned)
        ]
        self.ticks = [
            [
                (path, {"n": 1 + tick + part * len(touched), "score": rng.random() * 100.0})
                for tick, path in enumerate(touched)
            ]
            for part in range(self.planned * SPARE)
        ]
        self.predicted = len(self.listeners)  # the initial snapshots
        self.delivered = 0

    @staticmethod
    def on_delta(state: dict, delta) -> None:
        state["got"] += 1
        view = state["view"]
        for doc in delta.added + delta.modified:
            view[str(doc.path)] = doc.data
        for path in delta.removed:
            view.pop(str(path), None)

    def watchers(self, path: str) -> int:
        data = self.model[path]
        return sum(
            1
            for state in self.listeners
            if state["city"] == data["city"]
            and (state["active"] is None or data["active"])
        )

    def run_segment(self, index: int, tracer=None) -> None:
        db, clock_sim = self.db, self.service.clock
        begin, end = self.op_hooks(tracer)
        writes, notifies = self.samples["write"], self.samples["notify"]
        segment = self.ticks[index]
        stamps = []
        clock = perf_counter_ns
        segment_start = clock()
        for path, fields in segment:
            opened = begin()
            start = clock()
            try:
                outcome = db.commit([update_op(path, fields)])
            except FirestoreError as error:
                end(opened)
                self.fail(f"commit {path} raised {error!r}")
                continue
            committed = clock()
            clock_sim.advance(TICK_US)
            emitted = db.pump_realtime()
            stop = clock()
            end(opened)
            writes.append(committed - start)
            notifies.append(stop - committed)
            self.model[path].update(fields)
            self.predicted += self.watchers(path)
            self.delivered += emitted
            stamps.append((outcome.commit_ts, emitted))
        self.close_segment(len(segment), clock() - segment_start, stamps)

    def finish(self) -> None:
        ticks = max(1, self.ops)
        self.counts["realtime.matcher.matches_per_change"] = (
            self.db.realtime.matcher.changes_forwarded / ticks
        )
        self.counts["realtime.frontend.delivered_per_listener_tick"] = (
            self.delivered / (ticks * len(self.listeners))
        )

    def verify(self) -> None:
        got = sum(state["got"] for state in self.listeners)
        self.expect(
            got == self.predicted,
            f"{got} callbacks delivered, model predicted {self.predicted}",
        )
        for index, state in enumerate(self.listeners):
            fresh = {
                str(doc.path): doc.data
                for doc in self.db.run_query(state["query"]).documents
            }
            if state["view"] != fresh:
                self.fail(f"listener {index} view differs from a fresh query")
        self.check_final_state()
