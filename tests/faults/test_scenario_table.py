"""The one scenario table: parity with the two harnesses it merged.

``PINS`` holds, for every table entry at seed 1, the md5s of
``json.dumps(run.to_dict(), sort_keys=True)``, of
``history_jsonl(run.histories)`` and of
``json.dumps(run.fault_log, sort_keys=True)``, under mix ``none`` and
under the first mix CI sweeps that entry with. They were computed on the
code before the merge: the chaos rows by its ``run_chaos``; the
``isolation`` and ``anomaly-*`` rows from its checker-side runs (the
histories and violations it recorded, in a ``ChaosRun`` at mix
``none``). ``commit`` is also pinned under ``chaos``, the mix CI's
chaos-smoke step runs it with.
"""

import functools
import hashlib
import json

import pytest

from repro.faults.chaos import SCENARIOS, run_chaos
from repro.obs.export import history_jsonl

PINS = {
    ('commit', 'none'): (
        'ed44b50f13b3b7ac71b4efaa271d4714',
        '0fb62fd2a29d53208288b2fd92fe7898',
        'd751713988987e9331980363e24189ce',
    ),
    ('commit', 'storage'): (
        '7781007bc97d05b3351b07770c2bb19e',
        '9b92698ed2d37ab8ff8c2ad028a56f7d',
        '0610158de51be9b93908fa6bb7981733',
    ),
    ('commit', 'chaos'): (
        'fa5f551cb48a4c0309998b624ea7f04e',
        'd2a300748b6ba91ff1f7b53278fafd19',
        'e8846d98659686b8a8615ef149cabd10',
    ),
    ('ycsb', 'none'): (
        '936a2aec7c82139dcd34f05eee8b1980',
        '86e03cb287230db055bca44d3a06b29b',
        'd751713988987e9331980363e24189ce',
    ),
    ('ycsb', 'storage'): (
        '10ea8ed5ec2c4dcc92e02c1c59bf5a94',
        '86e03cb287230db055bca44d3a06b29b',
        'd751713988987e9331980363e24189ce',
    ),
    ('realtime-fanout', 'none'): (
        'aa9527b17ec0bfe363b91057fcfc5e3c',
        'ee65a8775d4740b19817c44147bd6731',
        'd751713988987e9331980363e24189ce',
    ),
    ('realtime-fanout', 'storage'): (
        '2c71b84789ca6a3243742a2134f57079',
        '0f5b33fba1601fad533b064030ad390f',
        'e63013569d78a9835f06a9b7bc516168',
    ),
    ('failover', 'none'): (
        '586e08244fc55eb2820a90acf4c4f4a2',
        'ee594bd72f0ffa2fa166b879469fec3b',
        'e11d718e8a5503b3ed56254b96c1bab3',
    ),
    ('failover', 'region-outage'): (
        'a6e1c8f3162157897254c1260665d7d6',
        '536b96ce24ecaaa1e96c5c42d1dc3d90',
        '29acd115b929cbdd56e7683cd8945dd1',
    ),
    ('overload-storm', 'none'): (
        'f072d6e414d4c02c07557296a8b62daa',
        '14ebb406b6c141d23a984e9e3a4286ca',
        'd751713988987e9331980363e24189ce',
    ),
    ('retry-storm', 'none'): (
        '0708498cad5b47e0638066c2e19bf062',
        '9afe1951ae31d29fcb71193f35e2c481',
        '0b2039856a8717987ceb87b91b029f60',
    ),
    ('metastable', 'none'): (
        '3e54e21b7ec7a0b2828db60246fedd0a',
        '0a9740e9e88cb01dfcce951ff0c119aa',
        'd751713988987e9331980363e24189ce',
    ),
    ('isolation', 'none'): (
        'c3c07e983aba84c01ef4bef2fe778bdd',
        'c74bf11fbaf01662b251b37fd2724b7c',
        'd751713988987e9331980363e24189ce',
    ),
    ('anomaly-lost-update', 'none'): (
        'f12b2885fc0a2f5e4fc9c8538e9402f7',
        'a5673d18f7bd9b1df72d87efe19307e4',
        'd751713988987e9331980363e24189ce',
    ),
    ('anomaly-write-skew', 'none'): (
        '971e1811f8e922bcc4cadaf6ab99c406',
        '2a2e4c774917da3e0c32d914241b298c',
        'd751713988987e9331980363e24189ce',
    ),
    ('anomaly-stale-notification', 'none'): (
        '38fc6c615971fb074426bd0809e2719b',
        '5bba7e4d22ae838d682be0727779cca9',
        'd751713988987e9331980363e24189ce',
    ),
    ('anomaly-non-monotonic-ts', 'none'): (
        '8c30b5a3946e558c885c5df277be580a',
        'e092536a58e658307f47f95668f85780',
        'd751713988987e9331980363e24189ce',
    ),
}


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _run(scenario: str, mix: str):
    return run_chaos(scenario, 1, mix)


def test_pins_cover_every_entry():
    assert {scenario for scenario, _mix in PINS} == set(SCENARIOS)


@pytest.mark.parametrize("scenario,mix", sorted(PINS))
def test_entry_matches_the_merged_harnesses(scenario, mix):
    run = _run(scenario, mix)
    assert (
        _md5(json.dumps(run.to_dict(), sort_keys=True)),
        _md5(history_jsonl(run.histories)),
        _md5(json.dumps(run.fault_log, sort_keys=True)),
    ) == PINS[(scenario, mix)]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_real_entries_are_ok_and_anomalies_violate(scenario):
    run = _run(scenario, "none")
    if scenario.startswith("anomaly-"):
        assert run.violations
    else:
        assert run.ok, (run.violations, run.exactly_once, run.converged)


def test_a_perturbed_run_names_its_mode():
    run = run_chaos("isolation", 1, "none", mode="delay")
    assert run.to_dict()["mode"] == "delay"
    assert run.cell == "isolation/none/delay"
    assert "mode" not in _run("isolation", "none").to_dict()
