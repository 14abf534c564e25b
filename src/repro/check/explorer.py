"""Schedule perturbers for the deterministic schedule explorer.

A scenario that runs on a :class:`repro.sim.events.EventKernel` hands
the kernel the perturber for its run's *mode* — a targeted, biased
reordering of the event queue via the
:class:`repro.sim.events.SchedulePerturber` hook. Because every source
of nondeterminism is seeded, a violating ``(scenario, seed, mix, mode,
ops)`` tuple is a perfect reproducer. The explorer itself is
``python -m repro.faults --explore``: it sweeps seeds × modes over the
scenario table (:mod:`repro.faults.chaos`) and shrinks every violating
run (:func:`repro.faults.chaos.shrink`).

Perturbation modes:

``none``
    the natural schedule (requested time, insertion order).
``delay``
    seeded extra latency on targeted events — commit, Real-time Cache
    pump, and transaction-step events get up to a few milliseconds of
    jitter, stretching the windows in which transactions overlap.

A mode is only worth sweeping where it changes the run: the scenario
table (:data:`repro.faults.chaos.SCENARIOS`) names the entries that
consult it, and ``tests/faults/test_scenario_table.py`` holds every
mode to changing those entries' histories and no others.
"""

from __future__ import annotations

from repro.sim.rand import SimRandom

#: the perturbation modes the explorer understands
MODES = ("none", "delay")

#: labels the perturber targets: transaction steps, commits and
#: Real-time Cache pumps (the prefixes some kernel label carries)
TARGET_PREFIXES = ("txn", "commit", "pump")

#: maximum injected delay (microseconds) in ``delay`` mode
MAX_DELAY_US = 4_000


def _targeted(label: str) -> bool:
    return label.startswith(TARGET_PREFIXES)


class DelayPerturber:
    """Seeded extra latency on targeted events (same-seed deterministic)."""

    def __init__(self, seed: int):
        self._rand = SimRandom(seed).fork("perturb-delay")

    def perturb(self, time_us: int, label: str, now_us: int) -> int:
        if _targeted(label):
            time_us += self._rand.randint(0, MAX_DELAY_US)
        return time_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DelayPerturber()"


def make_perturber(mode: str, seed: int):
    """The SchedulePerturber for one (mode, seed), or None for ``none``."""
    if mode == "none":
        return None
    if mode == "delay":
        return DelayPerturber(seed)
    raise ValueError(f"unknown perturbation mode {mode!r}; pick from {MODES}")
