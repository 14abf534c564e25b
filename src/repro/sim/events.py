"""A minimal discrete-event simulation kernel.

Components schedule callbacks at absolute simulated times; :meth:`run_until`
pops events in time order, advancing the shared :class:`SimClock` as it
goes. Ties are broken by insertion order, so behaviour is deterministic.

The kernel is intentionally tiny — callbacks, not coroutines — because the
functional database layers are synchronous; only the serving-infrastructure
simulation (queueing, autoscaling, heartbeats, workload arrivals) needs
asynchrony.

The kernel *is* our hardware (ROADMAP item 1): every simulated request is
a handful of these events, so wall-clock events/sec bounds how many
tenants a run can drive. The dispatch loop is therefore written for
speed, and ``perflint`` (:mod:`repro.analysis.engine`) holds it to that:
heap entries are plain ``(time_us, seq, event)`` tuples so
heap sift comparisons stay in C, :class:`Event` is an allocation-lean
``__slots__`` record, and the one dispatch loop (:meth:`EventKernel._run`,
which every public entry point calls) binds its hot attribute chains
(heap, clock) to locals once per run instead of re-resolving them per
event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional, Protocol

from repro.sim.clock import SimClock

#: "no bound" for :meth:`EventKernel._run`'s time and count limits: an int
#: past any sim time or event count, so the loop compares ints only
_UNBOUNDED = 1 << 62


class Event:
    """A scheduled callback; the kernel's heap entries order events by
    (time, sequence number), so same-instant events run in insertion
    order."""

    __slots__ = ("time_us", "seq", "callback", "cancelled", "label")

    def __init__(
        self,
        time_us: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
    ):
        self.time_us = time_us
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class SchedulePerturber(Protocol):
    """Hook deciding when a newly scheduled event fires.

    ``perturb`` receives the requested absolute time, the event's label,
    and the current time; it returns the (possibly later) time.
    Implementations must be deterministic functions of their own seed —
    the schedule explorer (``repro.check.explorer``) relies on (seed,
    mode) reproducing the exact same schedule.
    """

    def perturb(self, time_us: int, label: str, now_us: int) -> int:
        ...


class EventKernel:
    """Priority-queue event loop over a :class:`SimClock`.

    The heap holds ``(time_us, seq, event)`` tuples: sift
    comparisons resolve on the leading ints in C, and ``seq`` is unique
    so two entries never compare equal deep enough to reach the event.
    """

    __slots__ = ("clock", "perturber", "_heap", "_seq", "_executed")

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        perturber: Optional[SchedulePerturber] = None,
    ):
        self.clock = clock if clock is not None else SimClock()
        #: optional schedule-exploration hook; None means the natural
        #: (requested-time, insertion) order
        self.perturber = perturber
        # entry payload is an Event (at/after) or a bare callback (post)
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._executed = 0

    @property
    def now_us(self) -> int:
        """Current simulated time in microseconds."""
        return self.clock.now_us

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled events."""
        return sum(
            1
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        )

    @property
    def executed(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    def at(self, time_us: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time_us``."""
        now_us = self.clock._now_us
        if time_us < now_us:
            raise ValueError(
                f"cannot schedule event at {time_us}us in the past "
                f"(now={now_us}us)"
            )
        perturber = self.perturber
        if perturber is not None:
            time_us = perturber.perturb(time_us, label, now_us)
            # a perturbation may delay but never time-travel
            if time_us < now_us:
                time_us = now_us
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_us, seq, callback, label)
        heappush(self._heap, (time_us, seq, event))
        return event

    def after(self, delay_us: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"negative delay {delay_us}us")
        return self.at(self.clock._now_us + delay_us, callback, label=label)

    def post(self, time_us: int, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at absolute ``time_us``.

        Like :meth:`at` but returns no handle: no :class:`Event` record
        is allocated, so the callback cannot be cancelled or labelled.
        The dispatch loop recognises the bare-callable heap entry. Use
        this for high-volume work (periodic timers, storage completions)
        that never needs either — it skips one allocation and one Python
        frame per event. Falls back to :meth:`at` under a perturber so
        schedule exploration still sees every event.
        """
        if self.perturber is not None:
            self.at(time_us, callback)
            return
        if time_us < self.clock._now_us:
            raise ValueError(
                f"cannot schedule event at {time_us}us in the past "
                f"(now={self.clock._now_us}us)"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time_us, seq, callback))

    def _run(self, until_us: int, max_events: int) -> int:
        """The dispatch loop: run at most ``max_events`` events due by
        ``until_us``, in (time, seq) order; returns how many ran.

        Cancelled events are popped and dropped without counting.
        """
        heap = self._heap
        clock = self.clock
        executed = 0
        while heap and heap[0][0] <= until_us and executed < max_events:
            etime, _seq, item = heappop(heap)
            # a heap entry carries either an Event or, for the
            # fire-and-forget post() path, the bare callback
            if item.__class__ is Event:
                if item.cancelled:
                    continue
                item = item.callback
            # inlined clock.advance_to: one slot store beats a
            # method call at 200k+ events per run
            if etime > clock._now_us:
                clock._now_us = etime
            item()
            executed += 1
        self._executed += executed
        return executed

    def run_until(self, time_us: int) -> int:
        """Execute events with time <= ``time_us``; returns events executed.

        The clock ends at exactly ``time_us`` even if the last event fired
        earlier, so wall-clock-driven components observe consistent time.
        """
        executed = self._run(time_us, _UNBOUNDED)
        self.clock.advance_to(time_us)
        return executed

    def run_for(self, delta_us: int) -> int:
        """Run events for the next ``delta_us`` microseconds."""
        return self.run_until(self.clock._now_us + delta_us)

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain. Guards against runaway loops."""
        executed = self._run(_UNBOUNDED, max_events + 1)
        if executed > max_events:
            raise RuntimeError(
                f"drain() executed more than {max_events} events; "
                "likely a self-rescheduling loop"
            )
        return executed

    def step(self) -> bool:
        """Execute the single next event. Returns False if none remain."""
        return self._run(_UNBOUNDED, 1) == 1
