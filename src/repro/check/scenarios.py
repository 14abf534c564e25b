"""Checkable scenarios: recorded runs the explorer can sweep.

A scenario is a seeded, deterministic function ``build(seed, mode, ops)``
that exercises some slice of the stack with history recording forced on.
:func:`run_scenario` wraps the build in a :class:`repro.check.history.recording`
context, collects every recorder that was installed, and runs the full
checker over each history.

Three scenarios cover the real system (these must check clean — any
violation is a bug):

``commit``
    ``ops`` sequential commits against one database with a live
    listener, pumping the Real-time Cache after each — the minimal
    end-to-end seven-step + delivery loop.
``ycsb``
    a short traced YCSB run (:class:`repro.workloads.ycsb.YcsbRunner`
    with ``trace=True``): the serving simulation carries the load while
    the sampled :func:`repro.obs.trace_full_commit` drives the real
    functional write + notification path. This is the acceptance
    scenario: ``python -m repro.check`` runs it by default.
``isolation``
    a transactional analogue of the paper's Fig. 11 isolation setup: a
    *culprit* issuing contended two-step read-modify-write transfers
    and *bystander* blind writes against the same documents, over an
    :class:`repro.sim.events.EventKernel` whose schedule the explorer
    perturbs (``delay``/``flip`` modes), with seeded unknown-outcome
    commits pushing the Changelog through its out-of-sync fail-safe.
    (The original Fig. 11 workload is a pure queueing simulation with
    no functional transactions, so this scenario recreates its
    contention shape on the functional stack.)

The four ``anomaly-*`` scenarios (:mod:`repro.check.anomalies`) are
deliberately broken toy stores that the checker must flag — they prove
the checks have teeth.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from repro.check.checker import Violation, check_history
from repro.check.history import recording
from repro.sim.rand import SimRandom


@dataclass
class ScenarioRun:
    """One checked scenario execution."""

    scenario: str
    seed: int
    mode: str
    ops: int
    #: one event list per recorder the run installed
    histories: list[list[dict]] = dataclass_field(default_factory=list)
    violations: list[Violation] = dataclass_field(default_factory=list)

    @property
    def event_count(self) -> int:
        """Total events recorded across all histories."""
        return sum(len(history) for history in self.histories)


# -- real-system scenarios ---------------------------------------------------


def _commit_scenario(seed: int, mode: str, ops: int) -> None:
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService

    rand = SimRandom(seed).fork("commit-scenario")
    service = FirestoreService(multi_region=False)
    database = service.create_database("checked")
    deltas: list = []
    connection = database.connect()
    connection.listen(database.query("docs"), deltas.append)
    for op in range(ops):
        service.clock.advance(rand.randint(1_000, 10_000))
        database.commit(
            [set_op(f"docs/d{rand.randint(0, 2)}", {"v": op})]
        )
        service.clock.advance(rand.randint(1_000, 10_000))
        database.pump_realtime()
    service.clock.advance(20_000)
    database.pump_realtime()
    connection.close()


def _ycsb_scenario(seed: int, mode: str, ops: int) -> None:
    from repro.check.explorer import make_perturber
    from repro.workloads.ycsb import YcsbConfig, YcsbRunner

    config = YcsbConfig(
        workload="A",
        target_qps=max(10, ops),
        duration_s=6,
        measure_last_s=3,
        record_count=200,
        seed=seed,
        trace=True,
    )
    runner = YcsbRunner(config)
    runner.cluster.kernel.perturber = make_perturber(mode, seed)
    runner.run()


class _UnknownOutcomeSlot:
    """The isolation scenario's fault plan: one unknown-outcome slot.

    Duck-types the ``decide`` hook of ``repro.faults.FaultPlan`` (this
    package may not import ``repro.faults``). The slot is not a queue:
    arming it again before the next commit fires overwrites the fault.
    """

    __slots__ = ("applied",)

    def __init__(self):
        self.applied: Optional[bool] = None

    def decide(self, site: str) -> Optional[dict]:
        if site != "spanner.commit_unknown" or self.applied is None:
            return None
        detail, self.applied = {"applied": self.applied}, None
        return detail


def _isolation_scenario(seed: int, mode: str, ops: int) -> None:
    from repro.check.explorer import make_perturber
    from repro.core.backend import set_op
    from repro.core.firestore import FirestoreService
    from repro.core.transaction import TransactionContext
    from repro.errors import FirestoreError
    from repro.sim.events import EventKernel

    kernel = EventKernel(perturber=make_perturber(mode, seed))
    service = FirestoreService(
        multi_region=False, clock=kernel.clock
    )
    database = service.create_database("iso")
    faults = _UnknownOutcomeSlot()
    database.layout.spanner.fault_plan = faults
    rand = SimRandom(seed).fork("isolation-scenario")
    accounts = 3
    for account in range(accounts):
        database.commit(
            [set_op(f"accounts/a{account}", {"balance": 100})]
        )
    deltas: list = []
    connection = database.connect()
    connection.listen(database.query("accounts"), deltas.append)

    horizon_us = kernel.now_us + max(1, ops) * 8_000 + 50_000

    def pump() -> None:
        database.pump_realtime()

    for tick in range(kernel.now_us + 3_000, horizon_us, 3_000):
        kernel.at(tick, pump, label="pump")

    def start_transfer(op: int) -> None:
        src = rand.randint(0, accounts - 1)
        dst = (src + 1 + rand.randint(0, accounts - 2)) % accounts
        ctx = TransactionContext(database.backend)
        try:
            source = ctx.get(f"accounts/a{src}")
            target = ctx.get(f"accounts/a{dst}")
        except FirestoreError:
            return
        amount = rand.randint(1, 10)

        def finish() -> None:
            if not ctx._txn.is_active:
                return
            ctx.set(
                f"accounts/a{src}",
                {"balance": (source.data or {}).get("balance", 0) - amount},
            )
            ctx.set(
                f"accounts/a{dst}",
                {"balance": (target.data or {}).get("balance", 0) + amount},
            )
            if rand.bernoulli(0.15):
                # an unknown-outcome commit (this one, or whichever
                # commits next) drives the Changelog out-of-sync fail-safe
                faults.applied = rand.bernoulli(0.5)
            try:
                ctx._commit()
            except FirestoreError:
                ctx._rollback()

        kernel.after(rand.randint(200, 4_000), finish, label="txn-finish")

    def bystander(op: int) -> None:
        account = rand.randint(0, accounts - 1)
        try:
            database.commit(
                [set_op(f"accounts/a{account}", {"balance": 100 + op})]
            )
        except FirestoreError:
            pass

    base = kernel.now_us
    for op in range(ops):
        at_us = base + op * 6_000 + rand.randint(0, 4_000)
        kernel.at(at_us, lambda op=op: start_transfer(op), label="txn-start")
        kernel.at(
            at_us + rand.randint(500, 5_000),
            lambda op=op: bystander(op),
            label="commit-bystander",
        )
    kernel.run_until(horizon_us)
    kernel.drain()
    database.pump_realtime()
    connection.close()


#: scenario name -> (builder, default ops)
SCENARIOS: dict[str, tuple[Callable[[int, str, int], None], int]] = {
    "commit": (_commit_scenario, 4),
    "ycsb": (_ycsb_scenario, 50),
    "isolation": (_isolation_scenario, 12),
}


def _register_anomalies() -> None:
    from repro.check import anomalies

    SCENARIOS.update(
        {
            "anomaly-lost-update": (anomalies.lost_update, 6),
            "anomaly-write-skew": (anomalies.write_skew, 6),
            "anomaly-stale-notification": (anomalies.stale_notification, 6),
            "anomaly-non-monotonic-ts": (anomalies.non_monotonic_ts, 8),
        }
    )


_register_anomalies()


def lookup(registry: dict, scenario: str, kind: str = "scenario") -> tuple:
    """``registry[scenario]``, or a ValueError naming the choices."""
    entry = registry.get(scenario)
    if entry is None:
        raise ValueError(
            f"unknown {kind} {scenario!r}; pick from {sorted(registry)}"
        )
    return entry


def default_ops(scenario: str) -> int:
    """The scenario's default operation count."""
    return lookup(SCENARIOS, scenario)[1]


def record_and_check(run, builder: Callable[..., None], *args) -> None:
    """Run ``builder(*args)`` with history recording forced on, then
    append every non-empty recorded history, and the checker's
    violations over it, to ``run.histories`` / ``run.violations``."""
    with recording() as recorders:
        builder(*args)
    for recorder in recorders:
        history = list(recorder.events)
        if not history:
            continue
        run.histories.append(history)
        run.violations.extend(check_history(history))


def run_scenario(
    scenario: str,
    seed: int,
    mode: str = "none",
    ops: Optional[int] = None,
) -> ScenarioRun:
    """Run one scenario with recording forced on and check its histories."""
    builder, dflt = lookup(SCENARIOS, scenario)
    if ops is None:
        ops = dflt
    run = ScenarioRun(scenario, seed, mode, ops)
    record_and_check(run, builder, seed, mode, ops)
    return run
