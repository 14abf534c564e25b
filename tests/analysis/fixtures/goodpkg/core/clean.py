"""Good fixture: deterministic, layered, context-managed, justified."""

from repro.errors import InternalError
from repro.spanner.database import SpannerDatabase  # core -> spanner is sanctioned

FROZEN = frozenset({"b", "a"})


class _PrivateFailure(Exception):
    """Module-private exceptions never cross the boundary."""


class PolishedError(InternalError):
    """Public exceptions must derive from repro.errors."""


def traced_work(tracer, keys):
    with tracer.span("core.work") as span:
        for key in sorted(set(keys)):
            span.add_event("key", {"key": key})
    try:
        return SpannerDatabase()
    except InternalError:
        raise


def justified():
    # the pragma carries its reason, so the suppression is accepted
    import time  # reprolint: disable=banned-import -- fixture proving a justified pragma suppresses

    return time


def ordered_sets():
    # iterating a set is fine when the consumer cannot observe the order
    return sorted(x for x in {1, 2, 3}), sorted(n.upper() for n in FROZEN)
