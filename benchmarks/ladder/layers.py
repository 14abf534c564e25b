"""The layer boundary table: which callables of ``repro`` belong to which layer.

The traced run wraps exactly these names (see ``trace.py``); the README
lists them as the surface a refactor must keep or re-baseline. A name is
``module:function`` or ``module:Class.method``. Names in ``INTERNAL`` are
private helpers traced because public callers inline around them; they
are skipped, not fatal, if a later change removes them.
"""

from __future__ import annotations

#: report order; ``harness`` (the benchmark's own loop and load
#: generators) is accounted separately as ``harness.unattributed_share``
LAYERS = (
    "sim",
    "spanner.btree",
    "spanner.mvcc",
    "spanner.locks",
    "spanner.transaction",
    "replication",
    "core.encoding",
    "core.serialization",
    "core.index_entries",
    "core.backend",
    "core.planner",
    "core.executor",
    "rules",
    "realtime.changelog",
    "realtime.matcher",
    "realtime.frontend",
    "service.cluster",
    "service.pool",
    "service.scheduler",
    "service.admission",
    "faults",
    "check",
)

HARNESS = "harness"


def _methods(module: str, cls: str, *names: str) -> list[str]:
    return [f"{module}:{cls}.{name}" for name in names]


def _functions(module: str, *names: str) -> list[str]:
    return [f"{module}:{name}" for name in names]


BOUNDARIES: dict[str, list[str]] = {
    "sim": _methods(
        "repro.sim.events", "EventKernel",
        "run_until", "drain", "step", "at", "after", "post",
    ),
    "spanner.btree": _methods(
        "repro.spanner.btree", "BTreeMap", "get", "put", "delete", "items"
    ),
    "spanner.mvcc": _methods(
        "repro.spanner.mvcc", "VersionChain",
        "write", "read_at", "read_versioned_at", "latest",
    )
    + _methods(
        "repro.spanner.tablet", "Tablet", "read_at", "read_latest", "scan_at"
    ),
    "spanner.locks": _methods(
        "repro.spanner.locks", "LockTable",
        "acquire", "acquire_range", "release_all",
    ),
    "spanner.transaction": _methods(
        "repro.spanner.transaction", "ReadWriteTransaction",
        "read", "read_versioned", "scan", "put", "delete", "commit", "rollback",
    )
    + _methods(
        "repro.spanner.database", "SpannerDatabase",
        "begin", "snapshot_read", "snapshot_read_versioned", "snapshot_scan",
    ),
    "replication": _methods(
        "repro.replication.group", "ReplicaGroup",
        "precommit", "commit", "route_read", "elect",
    ),
    "core.encoding": _functions(
        "repro.core.encoding", "encode_value", "encode_tuple", "encode_doc_name"
    ),
    "core.serialization": _functions(
        "repro.core.serialization", "serialize_document", "deserialize_document"
    ),
    "core.index_entries": _functions(
        "repro.core.index_entries", "compute_document_entries", "diff_entries"
    ),
    "core.backend": _methods(
        "repro.core.backend", "Backend",
        "commit", "lookup", "run_query", "run_count",
    ),
    "core.planner": _methods("repro.core.planner", "QueryPlanner", "plan"),
    "core.executor": _methods(
        "repro.core.executor", "QueryExecutor", "execute", "count"
    ),
    "rules": _methods(
        "repro.rules.evaluator", "RulesEngine", "authorize", "allows"
    ),
    "realtime.changelog": _methods(
        "repro.realtime.changelog", "Changelog", "prepare", "accept", "pump"
    ),
    "realtime.matcher": _methods(
        "repro.realtime.matcher", "QueryMatcher", "on_change", "on_heartbeat"
    ),
    "realtime.frontend": _methods(
        "repro.realtime.frontend", "Frontend", "pump"
    ),
    "service.cluster": _methods(
        "repro.service.cluster", "ServingCluster",
        "submit", "submit_notification_fanout",
    ),
    "service.pool": _methods(
        "repro.service.pool", "TaskPool", "submit", "_dispatch"
    ),
    "service.scheduler": _methods(
        "repro.service.scheduler", "FairShareScheduler", "enqueue", "pick"
    ),
    "service.admission": _methods(
        "repro.service.admission", "AdmissionController",
        "try_admit", "recheck", "release",
    ),
    "faults": _methods("repro.faults.plan", "FaultPlan", "decide")
    + _functions("repro.faults.retry", "call_with_retry", "commit_with_retry"),
    "check": _functions("repro.check.checker", "check_history")
    + _methods(
        "repro.check.history", "HistoryRecorder",
        "txn_begin", "txn_read", "txn_scan", "txn_commit", "txn_abort",
        "txn_unknown", "snapshot_read", "backend_prepare", "backend_accept",
        "query_result", "changelog_accept", "changelog_deliver",
        "changelog_watermark", "changelog_out_of_sync", "changelog_resync",
        "notify", "repl_commit", "repl_apply", "repl_elect", "follower_read",
    ),
}

INTERNAL = frozenset({"repro.service.pool:TaskPool._dispatch"})

#: a call of one of these opens a new logical operation: spans under it,
#: and every kernel callback it schedules, carry its op id
OP_STARTERS = frozenset(
    {
        "repro.service.cluster:ServingCluster.submit",
        "repro.service.cluster:ServingCluster.submit_notification_fanout",
        "repro.faults.retry:call_with_retry",
        "repro.faults.retry:commit_with_retry",
    }
)

#: the kernel methods whose callback argument is run inside a span of the
#: layer that defined the callback (``after`` delegates to ``at``)
CALLBACK_SCHEDULERS = frozenset(
    {
        "repro.sim.events:EventKernel.at",
        "repro.sim.events:EventKernel.post",
    }
)

#: module prefix -> layer, longest prefix first, for scheduled callbacks
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.spanner.btree", "spanner.btree"),
    ("repro.spanner.mvcc", "spanner.mvcc"),
    ("repro.spanner.tablet", "spanner.mvcc"),
    ("repro.spanner.locks", "spanner.locks"),
    ("repro.spanner", "spanner.transaction"),
    ("repro.replication", "replication"),
    ("repro.realtime.changelog", "realtime.changelog"),
    ("repro.realtime.matcher", "realtime.matcher"),
    ("repro.realtime", "realtime.frontend"),
    ("repro.service.pool", "service.pool"),
    ("repro.service.scheduler", "service.scheduler"),
    ("repro.service.admission", "service.admission"),
    ("repro.service", "service.cluster"),
    ("repro.faults", "faults"),
    ("repro.check", "check"),
    ("repro.core", "core.backend"),
    ("repro.rules", "rules"),
)


def layer_of_module(module: str | None) -> str:
    """The layer charged for a kernel callback defined in ``module``."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    # load generators (repro.workloads, this benchmark) and anything else
    return HARNESS
