from repro.core.path import Path
from repro.core.query import Query
from repro.client.local_cache import LocalCache


def normalized(collection="notes", **kwargs):
    q = Query(parent=Path.parse(collection))
    for field, op, value in kwargs.get("filters", []):
        q = q.where(field, op, value)
    for field, direction in kwargs.get("orders", []):
        q = q.order_by(field, direction)
    if "limit" in kwargs:
        q = q.limit_to(kwargs["limit"])
    return q.normalize()


def test_record_and_get():
    cache = LocalCache()
    path = Path.parse("notes/a")
    cache.record_document(path, {"v": 1}, 100)
    cached = cache.get(path)
    assert cached.exists and cached.data == {"v": 1}
    assert cached.version_ts == 100


def test_never_regresses_to_older_versions():
    cache = LocalCache()
    path = Path.parse("notes/a")
    cache.record_document(path, {"v": 2}, 200)
    cache.record_document(path, {"v": 1}, 100)  # stale: ignored
    assert cache.get(path).data == {"v": 2}


def test_tombstones_cached():
    cache = LocalCache()
    path = Path.parse("notes/a")
    cache.record_document(path, {"v": 1}, 100)
    cache.record_document(path, None, 200)
    cached = cache.get(path)
    assert cached is not None and not cached.exists
    assert len(cache) == 0  # live count excludes tombstones


def test_run_query_filters_and_sorts():
    cache = LocalCache()
    cache.record_document(Path.parse("notes/a"), {"order": 3, "tag": "x"}, 1)
    cache.record_document(Path.parse("notes/b"), {"order": 1, "tag": "x"}, 1)
    cache.record_document(Path.parse("notes/c"), {"order": 2, "tag": "y"}, 1)
    cache.record_document(Path.parse("other/z"), {"order": 0, "tag": "x"}, 1)
    result = cache.run_query(
        normalized(filters=[("tag", "==", "x")], orders=[("order", "asc")])
    )
    assert [d.path.id for d in result] == ["b", "a"]


def test_run_query_respects_limit_offset():
    cache = LocalCache()
    for i in range(5):
        cache.record_document(Path.parse(f"notes/n{i}"), {"order": i}, 1)
    q = Query(parent=Path.parse("notes")).order_by("order").limit_to(2).offset_by(1)
    result = cache.run_query(q.normalize())
    assert [d.data["order"] for d in result] == [1, 2]


def test_clear():
    cache = LocalCache()
    cache.record_document(Path.parse("notes/a"), {"v": 1}, 1)
    cache.clear()
    assert len(cache) == 0
