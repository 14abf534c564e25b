"""The schedule explorer: perturber determinism, seed sweeps over the
seeded anomalies, and shrinking to minimal named reproducers."""

import pytest

from repro.check.explorer import DelayPerturber, MODES, make_perturber
from repro.faults.chaos import Reproducer, default_ops, run_chaos, shrink, sweep


def explore(scenario, seeds, modes):
    """Sweep ``seeds`` x ``modes`` at mix ``none``; (runs, reproducers)."""
    runs, _summary = sweep([scenario], list(seeds), ["none"], modes=modes)
    return runs, [shrink(run) for run in runs if run.violations]


def test_make_perturber():
    assert make_perturber("none", 1) is None
    assert isinstance(make_perturber("delay", 1), DelayPerturber)
    with pytest.raises(ValueError):
        make_perturber("chaos", 1)


def test_perturbers_are_seed_deterministic_and_targeted():
    sequence = [("txn-start", 100), ("idle", 100), ("commit-x", 200)]

    def run(perturber):
        return [perturber.perturb(t, label, 0) for label, t in sequence]

    assert run(DelayPerturber(7)) == run(DelayPerturber(7))
    # untargeted labels pass through unchanged
    delayed = run(DelayPerturber(7))
    assert delayed[1] == 100


def test_reproducer_command():
    reproducer = Reproducer("isolation", 3, "none", "delay", 6, ("lost-update",))
    assert reproducer.command() == (
        "python -m repro.faults --scenarios isolation --mixes none "
        "--modes delay --seed-base 3 --seeds 1 --ops 6"
    )


def test_explore_finds_and_shrinks_lost_update():
    runs, reproducers = explore("anomaly-lost-update", range(4), ["none"])
    assert reproducers
    assert len(runs) == 4
    for reproducer in reproducers:
        assert "lost-update" in reproducer.violations
        assert reproducer.ops <= default_ops("anomaly-lost-update")
        # the reproducer really reproduces
        rerun = run_chaos(
            reproducer.scenario,
            reproducer.seed,
            reproducer.mix,
            reproducer.ops,
            mode=reproducer.mode,
        )
        assert rerun.violations


def test_each_anomaly_yields_its_named_class():
    expected = {
        "anomaly-lost-update": "lost-update",
        "anomaly-write-skew": "write-skew",
        "anomaly-stale-notification": "notification-loss",
        "anomaly-non-monotonic-ts": "non-monotonic-commit",
    }
    for scenario, check in expected.items():
        _runs, reproducers = explore(scenario, range(6), ["none", "delay"])
        assert reproducers, scenario
        found = {
            violation
            for reproducer in reproducers
            for violation in reproducer.violations
        }
        assert check in found, (scenario, found)


def test_shrink_keeps_the_mix_and_drops_the_mode():
    def shrunk(seed):
        return shrink(
            run_chaos("anomaly-lost-update", seed, "storage", mode="delay")
        )

    first = shrunk(1)
    assert (first.mix, first.mode, first.ops) == ("storage", "delay", 3)
    assert (shrunk(0).mix, shrunk(0).mode) == ("storage", "none")


def test_shrink_requires_a_violating_run():
    with pytest.raises(AssertionError):
        shrink(run_chaos("commit", 1, "none", 2))


def test_modes_constant_matches_make_perturber():
    for mode in MODES:
        make_perturber(mode, 1)  # no ValueError
