"""A real-time tick costs work for the listeners a commit matches, not
for every listener.

Counted, not timed: Python ``line`` events executed inside
``realtime/frontend.py`` and ``realtime/matcher.py`` per tick (one
hot-document update, a clock advance and a pump). Four listeners watch
the hot document; 4, 16 or 64 bystanders watch cities of their own.
Re-sorting and re-diffing every listener's result each tick, and testing
every subscription on the range against each change, grew 8.1x from 4
to 64 bystanders; with the bystander early-out and the matcher's
equality index it grows about 2x (the remaining per-bystander cost is
the consistent-timestamp sweep and the range heartbeat).
"""

from repro.core.backend import set_op, update_op
from repro.core.firestore import FirestoreService
from tests._counting import lines_per_op

_COUNTED = ("realtime/frontend.py", "realtime/matcher.py")
HOT_LISTENERS = 4
DOCS_PER_CITY = 20
TICKS = 20


def lines_per_tick(bystanders: int) -> float:
    db = FirestoreService().create_database("scaling")
    cities = ["hot"] + [f"city{i:03d}" for i in range(bystanders)]
    for city in cities:
        db.commit(
            [set_op(f"items/{city}-{n:02d}", {"city": city, "n": n}) for n in range(DOCS_PER_CITY)]
        )
    connections = [db.connect() for _ in range(4)]
    listeners = ["hot"] * HOT_LISTENERS + cities[1:]
    delivered = []
    for index, city in enumerate(listeners):
        connections[index % len(connections)].listen(
            db.query("items").where("city", "==", city), delivered.append
        )
    delivered.clear()

    def ticks() -> int:
        for tick in range(TICKS):
            db.commit([update_op("items/hot-00", {"n": 100 + tick})])
            db.service.clock.advance(100_000)
            db.pump_realtime()
        return TICKS

    per_tick = lines_per_op(_COUNTED, ticks)
    assert len(delivered) == TICKS * HOT_LISTENERS
    return per_tick


def test_tick_cost_follows_matching_listeners():
    small, medium, large = (lines_per_tick(n) for n in (4, 16, 64))
    assert small <= medium <= large
    assert large <= 2.5 * small, (small, medium, large)
