"""Dispatch cost must not scale with pool size or tenant count.

Counted, not timed: the number of Python ``line`` events executed inside
``service/pool.py`` and ``service/scheduler.py`` per dispatched RPC is
the same on every machine. A scan over tasks or over every database
ever seen shows up as lines per RPC growing with the pool and the tenant
count (186 -> 4,176 for the linear scans at these two sizes; 82 at
both with the heaps).
"""

from repro.service.pool import TaskPool
from repro.service.rpc import Rpc, RpcKind
from repro.sim.events import EventKernel
from tests._counting import lines_per_op

_COUNTED = ("service/pool.py", "service/scheduler.py")


def lines_per_rpc(tasks: int, tenants: int) -> float:
    kernel = EventKernel()
    pool = TaskPool("p", kernel, initial_tasks=tasks)
    # every other database is served once, then sits idle in the scheduler
    for tenant in range(tenants):
        pool.submit(Rpc(f"idle-{tenant}", RpcKind.GET, 100, kernel.now_us))
    kernel.drain()

    rpcs = 8 * tasks

    def dispatch() -> int:
        # the first ``tasks`` submits saturate the pool; the rest queue
        # and are dispatched from completions
        for _ in range(rpcs):
            pool.submit(Rpc("hot", RpcKind.GET, 100, kernel.now_us))
        kernel.drain()
        return rpcs

    per_rpc = lines_per_op(_COUNTED, dispatch)
    assert pool.completed == tenants + rpcs
    return per_rpc


def test_lines_per_dispatched_rpc_do_not_grow_with_tasks_or_tenants():
    small = lines_per_rpc(tasks=16, tenants=10)
    large = lines_per_rpc(tasks=256, tenants=1000)
    assert large <= 1.5 * small, (small, large)
