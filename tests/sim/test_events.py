import pytest

from repro.sim.events import EventKernel
from tests._counting import lines_per_op


def _run_until(kernel):
    return kernel.run_until(100)


def _drain(kernel):
    return kernel.drain()


def _step(kernel):
    executed = 0
    while kernel.step():
        executed += 1
    return executed


@pytest.mark.parametrize(
    "drive", [_run_until, _drain, _step], ids=["run_until", "drain", "step"]
)
def test_events_fire_in_time_order(drive):
    """One dispatch loop behind three entry points: same order, same
    counts, and the same treatment of cancelled and bare-callback entries."""
    kernel = EventKernel()
    fired = []
    kernel.at(30, lambda: fired.append(("c", kernel.now_us)))
    kernel.at(10, lambda: fired.append(("a", kernel.now_us)))
    kernel.at(15, lambda: fired.append("cancelled")).cancel()
    kernel.post(20, lambda: fired.append(("b", kernel.now_us)))  # no Event
    kernel.at(20, lambda: fired.append(("b2", kernel.now_us)))
    executed = drive(kernel)
    assert fired == [("a", 10), ("b", 20), ("b2", 20), ("c", 30)]
    # a cancelled event is popped, but neither run nor counted
    assert executed == kernel.executed == 4
    assert kernel.pending == 0
    # only run_until moves the clock on to its boundary
    assert kernel.now_us == (100 if drive is _run_until else 30)
    # step() reports a callback ran, not that an entry was popped
    kernel.at(200, lambda: fired.append("cancelled")).cancel()
    assert kernel.step() is False
    assert kernel.executed == 4 and len(fired) == 4


def test_ties_break_by_insertion_order():
    kernel = EventKernel()
    fired = []
    kernel.at(10, lambda: fired.append("first"))
    kernel.at(10, lambda: fired.append("second"))
    kernel.run_until(10)
    assert fired == ["first", "second"]


def test_clock_advances_to_each_event_time():
    kernel = EventKernel()
    seen = []
    kernel.at(5, lambda: seen.append(kernel.now_us))
    kernel.at(9, lambda: seen.append(kernel.now_us))
    kernel.run_until(20)
    assert seen == [5, 9]
    assert kernel.now_us == 20  # ends at the run boundary


def test_run_until_leaves_future_events():
    kernel = EventKernel()
    fired = []
    kernel.at(10, lambda: fired.append(1))
    kernel.at(50, lambda: fired.append(2))
    kernel.run_until(20)
    assert fired == [1]
    assert kernel.pending == 1


def test_cannot_schedule_in_the_past():
    kernel = EventKernel()
    kernel.run_until(100)
    with pytest.raises(ValueError):
        kernel.at(50, lambda: None)


def test_after_schedules_relative():
    kernel = EventKernel()
    kernel.run_until(100)
    fired = []
    kernel.after(25, lambda: fired.append(kernel.now_us))
    kernel.run_until(200)
    assert fired == [125]


def test_after_rejects_negative_delay():
    with pytest.raises(ValueError):
        EventKernel().after(-1, lambda: None)


def test_cancelled_events_do_not_fire():
    kernel = EventKernel()
    fired = []
    event = kernel.at(10, lambda: fired.append(1))
    event.cancel()
    kernel.run_until(100)
    assert fired == []
    assert kernel.pending == 0


def test_events_can_schedule_more_events():
    kernel = EventKernel()
    fired = []

    def chain():
        fired.append(kernel.now_us)
        if len(fired) < 3:
            kernel.after(10, chain)

    kernel.at(0, chain)
    kernel.run_until(100)
    assert fired == [0, 10, 20]


def test_drain_runs_everything():
    kernel = EventKernel()
    fired = []
    for t in (5, 15, 25):
        kernel.at(t, lambda t=t: fired.append(t))
    executed = kernel.drain()
    assert executed == 3
    assert fired == [5, 15, 25]


def test_drain_guards_against_runaway():
    kernel = EventKernel()

    def forever():
        kernel.after(1, forever)

    kernel.at(0, forever)
    with pytest.raises(RuntimeError):
        kernel.drain(max_events=100)
    # the event that trips the guard has run, and is counted
    assert kernel.executed == 101


def test_step_executes_one_event():
    kernel = EventKernel()
    fired = []
    kernel.at(1, lambda: fired.append(1))
    kernel.at(2, lambda: fired.append(2))
    assert kernel.step() is True
    assert fired == [1]
    assert kernel.step() is True
    assert kernel.step() is False


def test_executed_counter():
    kernel = EventKernel()
    kernel.at(1, lambda: None)
    kernel.at(2, lambda: None)
    kernel.run_until(10)
    assert kernel.executed == 2


def _lines_per_event(drive, events: int, parked: int) -> float:
    """Lines executed in ``sim/events.py`` per event dispatched, with
    ``parked`` more entries sitting in the heap past the horizon."""
    kernel = EventKernel()
    for index in range(events):
        kernel.at(index % 97, lambda: None)
    for index in range(parked):
        kernel.at(1_000 + index, lambda: None)

    def run() -> int:
        assert drive(kernel) == events
        return events

    return lines_per_op(("sim/events.py",), run)


def test_lines_per_event_do_not_depend_on_heap_size_or_entry_point():
    # same events, 1x / 16x / 256x the heap: sift cost stays inside heapq
    base = _lines_per_event(_run_until, events=512, parked=0)
    assert _lines_per_event(_run_until, events=512, parked=15 * 512) == base
    assert _lines_per_event(_run_until, events=512, parked=255 * 512) == base
    # drain runs the same loop as run_until; only the few lines of the
    # entry point itself differ, once per run
    assert _lines_per_event(_drain, events=512, parked=0) == pytest.approx(
        base, rel=0.01
    )
