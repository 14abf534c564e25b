"""Differential test: the heap-based dispatch and pick against the
linear scans they replaced.

``ScanScheduler`` and ``ScanPool`` keep the previous implementations —
the min-virtual-time sweep over every queue ever created and the
first-idle scan over every task — as the reference oracle (verbatim
except that the metrics/tracer/profiler/overload taps, inert here, are
dropped). Both sides share ``TaskPool._make_completion``, so the
comparison isolates exactly the data structures: the same program must
produce the same ``(task_id, rpc, finish_us)`` assignments in the same
order, the same completions and rejections, and the same global virtual
time after every step.
"""

from collections import deque
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.service.pool import TaskPool, _Task
from repro.service.rpc import Rpc, RpcKind
from repro.service.scheduler import FairShareScheduler
from repro.sim.events import EventKernel

_INF = float("inf")


class _ScanQueue:
    def __init__(self) -> None:
        self.interactive: deque = deque()
        self.batch: deque = deque()
        self.virtual_time_us = 0.0

    def pop(self) -> Rpc:
        if self.interactive:
            return self.interactive.popleft()
        return self.batch.popleft()


class ScanScheduler(FairShareScheduler):
    """Reference: ``pick`` sweeps every queue for the min virtual time."""

    def enqueue(self, rpc: Rpc) -> None:
        self.enqueued += 1
        self.pending += 1
        if not self.fair:
            self._fifo.append(rpc)
            return
        queue = self._queues.get(rpc.database_id)
        if queue is None:
            queue = _ScanQueue()
            self._queues[rpc.database_id] = queue
        if not queue.interactive and not queue.batch:
            # (re)activating: start from the current global virtual time
            if queue.virtual_time_us < self._global_virtual_us:
                queue.virtual_time_us = self._global_virtual_us
        if rpc.latency_sensitive:
            queue.interactive.append(rpc)
        else:
            queue.batch.append(rpc)

    def pick(self) -> Optional[Rpc]:
        if not self.fair:
            if not self._fifo:
                return None
            self.dispatched += 1
            self.pending -= 1
            return self._fifo.popleft()
        best_queue: Optional[_ScanQueue] = None
        best_vt = 0.0
        second_vt = _INF
        for queue in self._queues.values():
            if not queue.interactive and not queue.batch:
                continue
            vt = queue.virtual_time_us
            if best_queue is None:
                best_queue = queue
                best_vt = vt
            elif vt < best_vt:
                second_vt = best_vt
                best_queue = queue
                best_vt = vt
            elif vt < second_vt:
                second_vt = vt
        if best_queue is None:
            return None
        rpc = best_queue.pop()
        new_vt = best_vt + rpc.cpu_cost_us
        best_queue.virtual_time_us = new_vt
        # min virtual time over queues still runnable after this pop
        # (the picked queue re-enters at its advanced time if non-empty)
        if best_queue.interactive or best_queue.batch:
            floor = new_vt if new_vt < second_vt else second_vt
        else:
            floor = second_vt if second_vt is not _INF else new_vt
        if floor > self._global_virtual_us:
            self._global_virtual_us = floor
        self.dispatched += 1
        self.pending -= 1
        return rpc


class ScanPool(TaskPool):
    """Reference: ``_tasks`` is a list in ascending id order and every
    dispatch scans it for the first task with ``busy_until_us <= now``."""

    def __init__(self, name, kernel, scheduler, initial_tasks):
        super().__init__(name, kernel, scheduler, initial_tasks)
        self._tasks = [_Task(i) for i in range(initial_tasks)]

    def add_tasks(self, count: int) -> None:
        for _ in range(count):
            self._tasks.append(_Task(self._next_task_id))
            self._next_task_id += 1
        self._dispatch()

    def remove_tasks(self, count: int) -> int:
        removable = min(count, len(self._tasks) - 1)
        now = self.kernel.now_us
        idle = [t for t in self._tasks if t.busy_until_us <= now]
        victims = idle[:removable]
        for task in victims:
            self._tasks.remove(task)
        return len(victims)

    def crash_tasks(self, count: int = 1, requeue: bool = True) -> int:
        crashed = 0
        tasks = self._tasks
        for _ in range(count):
            victim = None
            for task in tasks:
                if task.current_rpc is not None:
                    victim = task
                    break
            if victim is None and tasks:
                victim = tasks[0]
            if victim is None:
                break
            tasks.remove(victim)
            rpc = victim.current_rpc
            if rpc is not None:
                victim.current_event.cancel()
                if requeue:
                    self.scheduler.enqueue(rpc)
                else:
                    rpc.reject("task crashed")
            tasks.append(_Task(self._next_task_id))
            self._next_task_id += 1
            crashed += 1
        if crashed:
            self._dispatch()
        return crashed

    def _dispatch(self) -> None:
        scheduler = self.scheduler
        if scheduler.pending == 0:
            return
        tasks = self._tasks
        now = self.kernel.clock._now_us
        task = None
        for candidate in tasks:
            if candidate.busy_until_us <= now:
                task = candidate
                break
        if task is None:
            return
        kernel = self.kernel
        speedup = self.speedup
        pick = scheduler.pick
        while True:
            rpc = pick()
            if rpc is None:
                return
            if rpc.deadline_us is not None and now >= rpc.deadline_us:
                rpc.reject("deadline exceeded in queue")
                continue
            cost = rpc.cpu_cost_us
            service_us = max(1, round(cost / speedup)) if speedup != 1.0 else cost
            finish = now + service_us
            task.busy_until_us = finish
            self._busy_us_accum += service_us
            self.busy_us_total += service_us
            event = kernel.at(
                finish, self._make_completion(task, rpc, finish)
            )
            task.current_rpc = rpc
            task.current_event = event
            if scheduler.pending == 0:
                return
            task = None
            for candidate in tasks:
                if candidate.busy_until_us <= now:
                    task = candidate
                    break
            if task is None:
                return


class _DelayEveryThird:
    """Deterministic perturber: every third scheduled event fires 40us
    late, so a task is idle by ``busy_until_us`` while its completion
    callback is still pending."""

    def __init__(self) -> None:
        self.count = 0

    def perturb(self, time_us: int, label: str, now_us: int):
        self.count += 1
        if self.count % 3 == 0:
            return time_us + 40
        return time_us


def run(pool_cls, scheduler_cls, program, fair, tasks, perturbed):
    """Drive one pool through ``program``; returns everything observable."""
    kernel = EventKernel(perturber=_DelayEveryThird() if perturbed else None)
    log = []
    names = {}  # rpc_id -> index of the op that submitted it

    class Recording(pool_cls):
        def _make_completion(self, task, rpc, finish_us):
            log.append(("assign", task.task_id, names[rpc.rpc_id], finish_us))
            return super()._make_completion(task, rpc, finish_us)

    pool = Recording("p", kernel, scheduler_cls(fair=fair), tasks)
    for index, op in enumerate(program):
        if op[0] == "submit":
            _, db, cost, interactive, storage_us, ttl_us = op
            rpc = Rpc(
                db,
                RpcKind.GET,
                max(cost, 1),
                kernel.now_us,
                storage_latency_us=storage_us,
                latency_sensitive=interactive,
                deadline_us=None if ttl_us is None else kernel.now_us + ttl_us,
                on_complete=lambda rpc, latency, index=index: log.append(
                    ("done", index, latency)
                ),
                on_reject=lambda rpc, reason, index=index: log.append(
                    ("rejected", index, reason)
                ),
            )
            # the constructor refuses a zero cost; the arithmetic must
            # still agree when service times and virtual times do not move
            rpc.cpu_cost_us = cost
            names[rpc.rpc_id] = index
            pool.submit(rpc)
        elif op[0] == "run":
            kernel.run_for(op[1])
        elif op[0] == "add":
            pool.add_tasks(op[1])
        elif op[0] == "remove":
            log.append(("removed", pool.remove_tasks(op[1])))
        else:
            log.append(("crashed", pool.crash_tasks(op[1], requeue=op[2])))
        log.append(
            (
                "state",
                pool.scheduler._global_virtual_us,
                pool.size,
                pool.queue_depth(),
            )
        )
    kernel.drain()
    log.append(
        (
            "end",
            kernel.now_us,
            kernel.executed,
            pool.completed,
            pool.scheduler._global_virtual_us,
        )
    )
    return log


def assert_equivalent(program, fair=True, tasks=2, perturbed=False):
    heap = run(TaskPool, FairShareScheduler, program, fair, tasks, perturbed)
    scan = run(ScanPool, ScanScheduler, program, fair, tasks, perturbed)
    assert heap == scan
    return heap


def submit(db="a", cost=100, interactive=True, storage_us=0, ttl_us=None):
    return ("submit", db, cost, interactive, storage_us, ttl_us)


_ops = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(["a", "b", "c", "d"]),
        # zero and repeated costs so finish times and virtual times tie
        st.sampled_from([0, 1, 50, 100, 100, 100, 250]),
        st.booleans(),
        st.sampled_from([0, 0, 0, 30]),
        st.sampled_from([None, None, None, 0, 120]),
    ),
    st.tuples(st.just("run"), st.sampled_from([0, 1, 50, 100, 100, 300])),
    st.tuples(st.just("add"), st.integers(1, 3)),
    st.tuples(st.just("remove"), st.integers(1, 3)),
    st.tuples(st.just("crash"), st.integers(1, 2), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(
    program=st.lists(_ops, max_size=40),
    fair=st.booleans(),
    tasks=st.integers(1, 4),
    perturbed=st.booleans(),
)
def test_heap_dispatch_matches_scan(program, fair, tasks, perturbed):
    assert_equivalent(program, fair, tasks, perturbed)


def test_same_instant_wave_redispatches_before_sibling_completions():
    """Four equal RPCs on two tasks: at t=100 the first completion hands
    out *both* tasks while the second task's own completion is pending."""
    log = assert_equivalent([submit() for _ in range(4)], tasks=2)
    assert [entry for entry in log if entry[0] in ("assign", "done")] == [
        ("assign", 0, 0, 100),
        ("assign", 1, 1, 100),
        ("done", 0, 100),
        ("assign", 0, 2, 200),
        ("assign", 1, 3, 200),
        ("done", 1, 100),
        ("done", 2, 200),
        ("done", 3, 200),
    ]


def test_task_is_idle_from_busy_until_not_from_its_completion():
    """The third completion fires 40us late (t=340). The task's service
    ended at t=300, so the RPC submitted at t=310 starts at once, before
    that completion callback has run."""
    program = [submit(), submit(), submit(), ("run", 310), submit()]
    log = assert_equivalent(program, tasks=1, perturbed=True)
    assert log.index(("assign", 0, 4, 410)) < log.index(("done", 2, 300))


def test_tie_goes_to_the_earliest_created_database():
    """Equal virtual times: the earliest-created database is served
    first, whatever the order the databases went runnable again."""
    program = [
        submit("a"),
        submit("b"),
        submit("c"),
        ("run", 1000),
        # all three idle at the same global floor; re-activate in
        # reverse creation order behind a blocker that holds the task
        submit("z", 10),
        submit("c"),
        submit("b"),
        submit("a"),
    ]
    log = assert_equivalent(program, tasks=1)
    served = [entry[2] for entry in log if entry[0] == "assign"]
    assert served[-3:] == [7, 6, 5]  # a, b, c
