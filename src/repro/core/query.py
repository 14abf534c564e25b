"""The Firestore query model.

"Both modes support the same query features: projections, predicate
comparisons with a constant, conjunctions, orders, limits, offsets. A
query can have at most one inequality predicate, which must match the
first sort order. These restrictions allow Firestore's queries to be
directly satisfied from its secondary indexes." (paper section III-C)

A :class:`Query` is an immutable description; :meth:`Query.normalize`
validates it and computes the effective sort order (implicit inequality
order first, implicit ``__name__`` tiebreak last — the tiebreak direction
follows the last explicit order, as in production Firestore).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.errors import InvalidArgument
from repro.core.encoding import ASCENDING, DESCENDING
from repro.core.path import Path, collection_path
from repro.core.values import (
    compare_values,
    get_field,
    type_rank,
    validate_value,
    values_equal,
)

#: The pseudo-field naming the document itself.
NAME_FIELD = "__name__"


class Operator(enum.Enum):
    """The comparison operators of the query model."""
    EQ = "=="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    ARRAY_CONTAINS = "array-contains"


INEQUALITY_OPS = {Operator.LT, Operator.LE, Operator.GT, Operator.GE}


@dataclass(frozen=True, slots=True)
class Filter:
    """One predicate: ``field op constant``."""

    field_path: str
    op: Operator
    value: Any

    def __post_init__(self) -> None:
        if not self.field_path:
            raise InvalidArgument("filter needs a field path")
        validate_value(self.value)
        if self.op in INEQUALITY_OPS and isinstance(self.value, list):
            raise InvalidArgument("cannot use inequality on array values")

    def describe(self) -> str:
        """Render as 'field op value'."""
        return f"{self.field_path} {self.op.value} {self.value!r}"


@dataclass(frozen=True, slots=True)
class Order:
    """One sort component."""

    field_path: str
    direction: str = ASCENDING

    def __post_init__(self) -> None:
        if self.direction not in (ASCENDING, DESCENDING):
            raise InvalidArgument(f"bad direction {self.direction!r}")

    def flipped(self) -> "Order":
        """The same field ordered in the opposite direction."""
        flipped = DESCENDING if self.direction == ASCENDING else ASCENDING
        return Order(self.field_path, flipped)


@dataclass(frozen=True)
class Cursor:
    """A query cursor: values for each effective order component.

    ``before=True`` positions just before the matching position (startAt /
    endBefore); ``before=False`` just after (startAfter / endAt).
    """

    values: tuple
    before: bool


@dataclass(frozen=True, slots=True)
class Query:
    """An immutable query over one collection."""

    parent: Path
    filters: tuple[Filter, ...] = ()
    orders: tuple[Order, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    projection: Optional[tuple[str, ...]] = None
    start_cursor: Optional[Cursor] = None
    end_cursor: Optional[Cursor] = None

    def __post_init__(self) -> None:
        collection_path(self.parent)
        if self.limit is not None and self.limit < 0:
            raise InvalidArgument("limit must be non-negative")
        if self.offset < 0:
            raise InvalidArgument("offset must be non-negative")

    # -- builder API -----------------------------------------------------------

    def where(self, field_path: str, op: "Operator | str", value: Any) -> "Query":
        """Add a predicate; returns a new Query."""
        operator = op if isinstance(op, Operator) else Operator(op)
        return replace(
            self, filters=self.filters + (Filter(field_path, operator, value),)
        )

    def order_by(self, field_path: str, direction: str = ASCENDING) -> "Query":
        """Add a sort component; returns a new Query."""
        return replace(self, orders=self.orders + (Order(field_path, direction),))

    def limit_to(self, count: int) -> "Query":
        """Cap the result count; returns a new Query."""
        return replace(self, limit=count)

    def offset_by(self, count: int) -> "Query":
        """Skip leading results; returns a new Query."""
        return replace(self, offset=count)

    def select(self, *field_paths: str) -> "Query":
        """Project to the given field paths; returns a new Query."""
        return replace(self, projection=tuple(field_paths))

    def start_at(self, *values: Any) -> "Query":
        """Inclusive start cursor over the sort-order values."""
        return replace(self, start_cursor=Cursor(tuple(values), before=True))

    def start_after(self, *values: Any) -> "Query":
        """Exclusive start cursor over the sort-order values."""
        return replace(self, start_cursor=Cursor(tuple(values), before=False))

    def end_at(self, *values: Any) -> "Query":
        """Inclusive end cursor over the sort-order values."""
        return replace(self, end_cursor=Cursor(tuple(values), before=False))

    def end_before(self, *values: Any) -> "Query":
        """Exclusive end cursor over the sort-order values."""
        return replace(self, end_cursor=Cursor(tuple(values), before=True))

    # -- analysis ------------------------------------------------------------------

    @property
    def collection_group(self) -> str:
        """The queried collection's id (last path segment)."""
        return self.parent.id

    def equality_filters(self) -> list[Filter]:
        """The == predicates, in declaration order."""
        return [f for f in self.filters if f.op is Operator.EQ]

    def contains_filters(self) -> list[Filter]:
        """The array-contains predicates."""
        return [f for f in self.filters if f.op is Operator.ARRAY_CONTAINS]

    def inequality_filters(self) -> list[Filter]:
        """The range predicates (<, <=, >, >=)."""
        return [f for f in self.filters if f.op in INEQUALITY_OPS]

    def normalize(self) -> "NormalizedQuery":
        """Validate the query and compute its effective order.

        Raises :class:`InvalidArgument` for queries outside the model
        (multiple inequality fields, inequality not matching the first
        sort order, etc.).
        """
        inequalities = self.inequality_filters()
        ineq_fields = {f.field_path for f in inequalities}
        if len(ineq_fields) > 1:
            raise InvalidArgument(
                "queries may have at most one inequality field; got "
                + ", ".join(sorted(ineq_fields))
            )
        if len(self.contains_filters()) > 1:
            raise InvalidArgument("at most one array-contains filter per query")

        equality_paths = [f.field_path for f in self.equality_filters()]
        if len(set(equality_paths)) != len(equality_paths):
            raise InvalidArgument("duplicate equality filters on one field")
        if NAME_FIELD in {f.field_path for f in self.filters}:
            raise InvalidArgument("filters on __name__ are not supported")

        explicit = list(self.orders)
        for order in explicit:
            if order.field_path == NAME_FIELD and order is not explicit[-1]:
                raise InvalidArgument("__name__ may only be the last order")

        ineq_field = next(iter(ineq_fields), None)
        if ineq_field is not None:
            if explicit and explicit[0].field_path != ineq_field:
                raise InvalidArgument(
                    f"inequality on {ineq_field} must match the first sort "
                    f"order (got {explicit[0].field_path})"
                )
            if not explicit:
                explicit = [Order(ineq_field, ASCENDING)]

        # implicit __name__ tiebreak, direction following the last order
        if explicit and explicit[-1].field_path == NAME_FIELD:
            name_direction = explicit[-1].direction
            core = explicit[:-1]
        else:
            core = explicit
            name_direction = core[-1].direction if core else ASCENDING

        seen = set()
        for order in core:
            if order.field_path in seen:
                raise InvalidArgument(f"duplicate order on {order.field_path}")
            seen.add(order.field_path)

        if self.start_cursor is not None:
            self._check_cursor(self.start_cursor, core)
        if self.end_cursor is not None:
            self._check_cursor(self.end_cursor, core)

        return NormalizedQuery(
            query=self,
            equality=tuple(self.equality_filters()),
            contains=tuple(self.contains_filters()),
            inequalities=tuple(inequalities),
            core_orders=tuple(core),
            name_direction=name_direction,
        )

    def _check_cursor(self, cursor: Cursor, core: Sequence[Order]) -> None:
        if len(cursor.values) > len(core) + 1:
            raise InvalidArgument(
                "cursor has more values than the query has sort orders"
            )

    def describe(self) -> str:
        """Render the query for errors and logs."""
        parts = [f"from {self.parent}"]
        parts.extend(f.describe() for f in self.filters)
        parts.extend(f"order {o.field_path} {o.direction}" for o in self.orders)
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        return "; ".join(parts)


@dataclass(frozen=True)
class NormalizedQuery:
    """A validated query plus its derived structure."""

    query: Query
    equality: tuple[Filter, ...]
    contains: tuple[Filter, ...]
    inequalities: tuple[Filter, ...]
    #: effective sort orders excluding the trailing __name__
    core_orders: tuple[Order, ...]
    #: direction of the implicit trailing __name__ order
    name_direction: str

    @property
    def ineq_field(self) -> Optional[str]:
        """The single inequality field, or None."""
        return self.inequalities[0].field_path if self.inequalities else None

    def order_suffix(self) -> tuple[Order, ...]:
        """The ordering an index must provide after its equality prefix."""
        return self.core_orders

    def flipped_suffix(self) -> tuple[Order, ...]:
        """The order suffix with every direction reversed."""
        return tuple(order.flipped() for order in self.core_orders)


def matches_filter(doc_data: dict, flt: Filter) -> bool:
    """Evaluate one filter against document data (residual verification)."""
    present, value = get_field(doc_data, flt.field_path)
    if not present:
        return False
    if flt.op is Operator.ARRAY_CONTAINS:
        if not isinstance(value, list):
            return False
        return any(values_equal(item, flt.value) for item in value)
    try:
        cmp = compare_values(value, flt.value)
    except InvalidArgument:
        return False
    if flt.op is Operator.EQ:
        return cmp == 0
    # Inequality comparisons only match values of the same type rank
    # (production semantics: an inequality on a number never matches a
    # string, because those live in disjoint ranges of the index).
    if type_rank(value) != type_rank(flt.value):
        return False
    if flt.op is Operator.LT:
        return cmp < 0
    if flt.op is Operator.LE:
        return cmp <= 0
    if flt.op is Operator.GT:
        return cmp > 0
    return cmp >= 0
