"""The unified BENCH schema: metric validation, payload version and the
disk round-trip every ``BENCH_*.json`` writer and reader relies on."""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    load_bench_dir,
    metric,
    write_payload,
)


def _payload(**metrics):
    return bench_payload(name="cell", figure="fig00", metrics=metrics)


def test_metric_validation():
    assert metric(5, "us") == {
        "value": 5, "unit": "us", "kind": "stat", "tolerance": 0.30,
    }
    assert metric(5, kind="exact") == {"value": 5, "unit": "", "kind": "exact"}
    with pytest.raises(ValueError):
        metric(5, kind="fuzzy")


def test_payload_carries_schema_version():
    payload = _payload(ops=metric(1, kind="exact"))
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert payload["name"] == "cell"
    assert payload["figure"] == "fig00"


def test_write_and_load_roundtrip(tmp_path):
    payload = _payload(ops=metric(3, kind="exact"))
    path = write_payload(tmp_path, payload)
    assert path.name == "BENCH_cell.json"
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == payload
    # pre-schema files are ignored, not mis-parsed
    (tmp_path / "BENCH_legacy.json").write_text('{"old": true}')
    assert load_bench_dir(tmp_path) == {"cell": payload}

