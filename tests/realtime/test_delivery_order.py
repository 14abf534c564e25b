"""Listener delivery order is connect order, in every process.

The order in which a pump delivers to connections reaches the history
recorder's ``notify`` events, so it must be a function of the run alone
and never of object addresses.
"""

import os
import subprocess
import sys

from repro.core.backend import set_op
from repro.core.firestore import FirestoreService

CONNECTIONS = 400


def delivery_order(connections: int = CONNECTIONS) -> list[int]:
    """Connect ``connections`` listeners on one collection, commit once,
    pump, and return the connection indexes in delivery order."""
    db = FirestoreService().create_database("order")
    order: list[int] = []
    for index in range(connections):
        db.connect().listen(
            db.query("feed"),
            lambda delta, index=index: None if delta.is_initial else order.append(index),
        )
    db.commit([set_op("feed/p0", {"n": 1})])
    db.service.clock.advance(100_000)
    db.pump_realtime()
    return order


def test_delivery_order_is_connect_order():
    assert delivery_order() == list(range(CONNECTIONS))


def test_delivery_order_is_identical_across_processes():
    script = (
        "from tests.realtime.test_delivery_order import delivery_order; "
        "print(delivery_order())"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("[0, 1, 2")
