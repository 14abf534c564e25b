"""Smoke test of the ladder benchmark at tiny sizes.

Run explicitly: ``PYTHONPATH=src python -m pytest benchmarks/ladder -q``
(it is outside ``testpaths``, so tier-1 does not collect it).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.ladder import harness
from benchmarks.ladder.layers import HARNESS
from benchmarks.ladder.trace import Tracer, self_times
from benchmarks.ladder.workload import Size

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
RUN = str(harness.ROOT / "benchmarks" / "ladder" / "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "crud": Size(200, 1200),
    "lookup": Size(200, 800),
    "query": Size(300, 36),
    "listen": Size(300, 30),
    "fleet": Size(0, 3),
    "fleet_tenants": Size(0, 1),
    "chaos": Size(0, 40),
}
FUNCTIONAL = ("crud", "lookup", "query", "listen")


def test_benchmark_json_names_what_the_harness_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    } == harness.per_layer_names()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert metric["better"] in ("higher", "lower")
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/ladder"]


@pytest.fixture(scope="module")
def traced():
    """Every workload, tiny: (plain, traced, tracer, per-layer values)."""
    return {
        name: harness.trace_workload(name, seed=5, size=size, keep_spans=10**7)
        for name, size in TINY.items()
    }


@pytest.mark.parametrize("name", list(TINY))
def test_workload_verifies_and_tracing_changes_no_output(traced, name):
    plain, under_trace, _, values = traced[name]
    for measured in (plain, under_trace):
        assert measured.workload.failures == []
        assert measured.workload.failed == 0
        assert measured.workload.ops > 0
    assert plain.workload.digest() == under_trace.workload.digest()
    assert set(values) == set(harness.per_layer_names())
    assert all(value >= 0 for value in values.values())
    assert values["harness.trace_overhead_ratio"] > 0
    assert plain.ops_per_s() > 0 and plain.op_us() > 0


@pytest.mark.parametrize("name", list(TINY))
def test_span_tree_is_well_formed(traced, name):
    _, _, tracer, values = traced[name]
    spans = {span[0]: span for span in tracer.spans}
    assert len(spans) == len(tracer.spans) == tracer.spans_opened  # all kept
    roots = [s for s in tracer.spans if s[4] == -1]
    assert len(roots) == 1 and tracer.names[roots[0][1]] == "run"
    for sid, _, start, end, parent, _ in tracer.spans:
        assert start <= end
        if parent != -1:
            _, _, parent_start, parent_end, _, _ = spans[parent]
            assert parent_start <= start and end <= parent_end
    own = self_times(tracer.spans)
    assert all(value >= 0 for value in own.values())
    # the on-line aggregates equal self times recomputed from the records
    by_name: dict[str, int] = {}
    for span in tracer.spans:
        label = tracer.names[span[1]]
        by_name[label] = by_name.get(label, 0) + own[span[0]]
    for label, entry in tracer.name_stats().items():
        assert by_name.get(label, 0) == entry["self_ns"], label
    assert sum(own.values()) == tracer.total_ns
    if name in FUNCTIONAL:
        assert values["harness.unattributed_share"] < 0.10
        harness_ns = tracer.layer_stats()[HARNESS]["self_ns"]
        assert harness_ns / tracer.total_ns == values["harness.unattributed_share"]


def test_layers_the_workloads_are_meant_to_stress_show_up(traced):
    crud, listen = traced["crud"][3], traced["listen"][3]
    assert crud["core.encoding.self_share"] > 0
    assert crud["rules.calls_per_op"] > 0
    assert crud["realtime.frontend.self_share"] == 0
    assert listen["realtime.frontend.self_share"] > crud["core.backend.self_share"]
    assert traced["query"][3]["core.executor.eq1_p50_us"] > 0
    assert traced["query"][3]["rules.calls_per_op"] == 0
    fleet = traced["fleet"][3]
    assert fleet["spanner.btree.calls_per_op"] == 0  # storage is priced
    executed = traced["fleet"][1].workload.executed
    assert fleet["sim.events_per_op"] * traced["fleet"][1].workload.ops == (
        pytest.approx(executed)
    )
    assert traced["chaos"][3]["check.events_per_op"] > 0
    assert traced["chaos"][3]["faults.calls_per_op"] > 0


@pytest.mark.parametrize("name", ["crud", "fleet_tenants"])
def test_same_seed_gives_equal_digests_and_counts(traced, name):
    _, first, _, values = traced[name]
    _, again, _, values_again = harness.trace_workload(name, seed=5, size=TINY[name])
    assert first.workload.digest() == again.workload.digest()
    for metric, value in values.items():
        if metric.endswith(("calls_per_op", "events_per_op", "per_commit")):
            assert value == values_again[metric], metric
    other = harness.measure(name, seed=6, size=TINY[name])
    assert other.workload.digest() != first.workload.digest()


def test_wrappers_are_fully_removed_after_a_traced_run():
    from repro.core import backend, index_entries
    from repro.sim.events import EventKernel
    from repro.spanner.btree import BTreeMap

    before = (
        vars(BTreeMap)["get"],
        vars(EventKernel)["post"],
        index_entries.compute_document_entries,
    )
    tracer = Tracer()
    tracer.install()
    assert tracer.installed and vars(BTreeMap)["get"] is not before[0]
    assert backend.compute_document_entries is index_entries.compute_document_entries
    assert index_entries.compute_document_entries is not before[2]
    tracer.uninstall()
    assert not tracer.installed
    assert (
        vars(BTreeMap)["get"],
        vars(EventKernel)["post"],
        index_entries.compute_document_entries,
    ) == before
    assert backend.compute_document_entries is before[2]


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace, tmp_path):
    done = _run(
        ["--workload", "fleet", "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=tmp_path,  # the driver's cwd is not the repository
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.ROOT / "benchmarks" / "ladder",
        tmp_path / "benchmarks" / "ladder",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "crud",
         "--seed", "1", "--seconds", "6", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
