"""The Query Matcher.

"On receiving the document, the Query Matcher matches it with all the
queries registered for that key range and sends the matched documents to
the Frontend task" (paper section IV-D4, step 5). A subscription carries
the query and a ``max-commit-version``; only updates with later commit
timestamps are forwarded.

A change is relevant when the document matched the query *before or
after* the mutation — leaving a result set is as much an update as
entering it.

Each range keeps an equality candidate index so a change costs work only
for the queries it can match: a subscription whose query has a ``==``
filter on a string sits in the bucket for that (field, value); every
other subscription is unindexed. A change's candidates are the unindexed
subscriptions plus the buckets its old *and* new field values hit. Only
strings are indexed: numbers, booleans and NaN compare equal across
Python types differently from the query model's total order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.path import Path
from repro.core.query import NormalizedQuery, Operator, matches_filter
from repro.core.values import get_field
from repro.realtime.protocol import DocumentChange
from repro.realtime.ranges import NameRange, RangeOwnership


def document_matches_query(
    normalized: NormalizedQuery, path: Path, data: Optional[dict]
) -> bool:
    """Would a document with ``data`` appear in this query's results?

    Checks collection membership, every filter, and presence of every
    order-by field (documents missing an ordered field are absent from
    the index the query scans).
    """
    if data is None:
        return False
    parent = path.parent()
    if parent is None or parent != normalized.query.parent:
        return False
    for flt in normalized.query.filters:
        if not matches_filter(data, flt):
            return False
    for order in normalized.core_orders:
        present, _ = get_field(data, order.field_path)
        if not present:
            return False
    return True


@dataclass
class Subscription:
    """One real-time query registered with the Matcher."""

    subscription_id: int
    normalized: NormalizedQuery
    resume_ts: int  # forward only commits strictly after this
    deliver: Callable[[int, DocumentChange], None]  # (subscription_id, change)
    notify_watermark: Callable[[int, int, int], None]  # (sub_id, range_id, ts)
    notify_reset: Callable[[int], None]  # (sub_id)
    range_ids: set[int]


def _equality_key(normalized: NormalizedQuery) -> Optional[tuple[str, str]]:
    """The (field, value) of the query's first ``==`` filter on a string."""
    for flt in normalized.query.filters:
        if flt.op is Operator.EQ and type(flt.value) is str:
            return flt.field_path, flt.value
    return None


class _RangeSubscriptions:
    """One range's subscriptions, with the equality candidate index."""

    def __init__(self):
        #: every subscription on the range, in ascending id
        self.all: dict[int, Subscription] = {}
        self._unindexed: dict[int, Subscription] = {}
        #: field path -> string value -> {subscription_id: Subscription}
        self._buckets: dict[str, dict[str, dict[int, Subscription]]] = {}

    def add(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        self.all[sid] = subscription
        key = _equality_key(subscription.normalized)
        if key is None:
            self._unindexed[sid] = subscription
        else:
            field_path, value = key
            self._buckets.setdefault(field_path, {}).setdefault(value, {})[
                sid
            ] = subscription

    def remove(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        if self.all.pop(sid, None) is None:
            return
        key = _equality_key(subscription.normalized)
        if key is None:
            del self._unindexed[sid]
            return
        field_path, value = key
        by_value = self._buckets[field_path]
        del by_value[value][sid]
        if not by_value[value]:
            del by_value[value]
            if not by_value:
                del self._buckets[field_path]

    def candidates(self, change: DocumentChange) -> list[Subscription]:
        """Subscriptions the change may match, in ascending id."""
        found = dict(self._unindexed)
        versions = (change.old_data, change.new_data)
        for field_path, by_value in self._buckets.items():
            for data in versions:
                if data is None:
                    continue
                present, value = get_field(data, field_path)
                if present and isinstance(value, str):
                    bucket = by_value.get(value)
                    if bucket:
                        found.update(bucket)
        return [found[sid] for sid in sorted(found)]


class QueryMatcher:
    """Matcher tasks for one database's ranges."""

    def __init__(self, ownership: RangeOwnership, tracer=None, metrics=None):
        from repro.obs.tracer import NULL_TRACER

        self.ownership = ownership
        self._ids = itertools.count(1)
        self._by_range: dict[int, _RangeSubscriptions] = {}
        self._subs: dict[int, Subscription] = {}
        # observability
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.changes_examined = 0
        self.changes_forwarded = 0

    # -- subscription management ----------------------------------------------------

    def subscribe(
        self,
        normalized: NormalizedQuery,
        resume_ts: int,
        deliver: Callable[[int, DocumentChange], None],
        notify_watermark: Callable[[int, int, int], None],
        notify_reset: Callable[[int], None],
    ) -> Subscription:
        """Register a query over the ranges covering its collection."""
        ranges = self.ownership.ranges_for_collection(normalized.query.parent)
        subscription = Subscription(
            subscription_id=next(self._ids),
            normalized=normalized,
            resume_ts=resume_ts,
            deliver=deliver,
            notify_watermark=notify_watermark,
            notify_reset=notify_reset,
            range_ids={r.range_id for r in ranges},
        )
        self._subs[subscription.subscription_id] = subscription
        for name_range in ranges:
            range_subs = self._by_range.get(name_range.range_id)
            if range_subs is None:
                range_subs = self._by_range[name_range.range_id] = _RangeSubscriptions()
            range_subs.add(subscription)
        return subscription

    def unsubscribe(self, subscription_id: int) -> None:
        """Remove a subscription from every range."""
        subscription = self._subs.pop(subscription_id, None)
        if subscription is None:
            return
        for range_id in subscription.range_ids:
            range_subs = self._by_range.get(range_id)
            if range_subs is not None:
                range_subs.remove(subscription)

    def subscription_count(self) -> int:
        """Registered subscriptions."""
        return len(self._subs)

    # -- change / heartbeat / reset fan-in from the Changelog ---------------------------

    def on_change(self, name_range: NameRange, change: DocumentChange) -> None:
        """Changelog fan-in: match one mutation against subscribers."""
        forwarded = 0
        attrs = (
            {"range_id": name_range.range_id, "path": str(change.path)}
            if self.tracer
            else None
        )
        with self.tracer.span(
            "matcher.match", component="realtime", attributes=attrs
        ) as span:
            range_subs = self._by_range.get(name_range.range_id)
            # "examined" counts the subscriptions registered on the range;
            # only the index's candidates are tested against the change
            examined = len(range_subs.all) if range_subs is not None else 0
            for subscription in range_subs.candidates(change) if examined else ():
                if change.commit_ts <= subscription.resume_ts:
                    continue
                relevant = document_matches_query(
                    subscription.normalized, change.path, change.old_data
                ) or document_matches_query(
                    subscription.normalized, change.path, change.new_data
                )
                if relevant:
                    forwarded += 1
                    subscription.deliver(subscription.subscription_id, change)
            span.set_attribute("examined", examined)
            span.set_attribute("forwarded", forwarded)
        self.changes_examined += examined
        self.changes_forwarded += forwarded
        if self.metrics is not None:
            self.metrics.counter("matcher_changes_examined").inc(examined)
            self.metrics.counter("matcher_changes_forwarded").inc(forwarded)

    def on_heartbeat(self, name_range: NameRange, watermark: int) -> None:
        """Changelog fan-in: forward a range watermark."""
        for subscription in self._subscriptions(name_range.range_id):
            subscription.notify_watermark(
                subscription.subscription_id, name_range.range_id, watermark
            )

    def on_out_of_sync(self, name_range: NameRange) -> None:
        """Propagate the reset "all the way up to all Frontend tasks with a
        real-time query that matches the name range"."""
        for subscription in self._subscriptions(name_range.range_id):
            subscription.notify_reset(subscription.subscription_id)

    def on_reassign(self, old: NameRange, new: list[NameRange]) -> None:
        """Ownership moved (Slicer re-sharding): reset affected queries."""
        range_subs = self._by_range.pop(old.range_id, None)
        for subscription in list(range_subs.all.values()) if range_subs else ():
            subscription.notify_reset(subscription.subscription_id)

    def _subscriptions(self, range_id: int) -> list[Subscription]:
        """A snapshot of the range's subscriptions, in ascending id."""
        range_subs = self._by_range.get(range_id)
        return list(range_subs.all.values()) if range_subs is not None else []
