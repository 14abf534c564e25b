"""The Firestore value model and its cross-type total order.

Firestore documents are schemaless: a field may hold any of a rich set of
primitive and complex types, and "Firestore's query semantics ... allow
sorting on any value including arrays and maps and sorting across fields
with inconsistent types" (paper section IV-D1) — one of the two reasons
Firestore implements its own indexes and query engine instead of using
Spanner's.

Python-native types map to Firestore types:

====================  =====================
Python                Firestore
====================  =====================
None                  null
bool                  boolean
int / float           number (int64/double, compared numerically)
Timestamp             timestamp
str                   string
bytes                 bytes
Reference             reference (document name)
GeoPoint              geo point
list                  array
dict (str keys)       map
====================  =====================

The cross-type sort order (production Firestore's documented order) is::

    null < boolean < NaN < number < timestamp < string < bytes
         < reference < geo point < array < map

Within numbers, integers and doubles compare by true numeric value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Iterator

from repro.errors import InvalidArgument

#: Maximum encoded document size (paper section III-A: "at most 1MiB").
MAX_DOCUMENT_BYTES = 1 << 20


class _ServerTimestamp:
    """Sentinel: replaced with the commit-time timestamp by the Backend.

    The client-side SDK shows a local estimate until the server value
    arrives (latency compensation). Copying preserves identity so that
    ``value is SERVER_TIMESTAMP`` survives the deep copies the write path
    makes.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "SERVER_TIMESTAMP"

    def __copy__(self) -> "_ServerTimestamp":
        return self

    def __deepcopy__(self, memo) -> "_ServerTimestamp":
        return self


SERVER_TIMESTAMP = _ServerTimestamp()


@dataclass(frozen=True)
class FieldTransform:
    """A server-side field transformation, resolved at commit time.

    Like SERVER_TIMESTAMP, transforms appear as values inside write data
    and are substituted by the Backend against the field's previous
    value. Copying preserves nothing special — the dataclass is already
    immutable. Supported kinds mirror the production SDKs:

    - ``increment``: numeric add (missing/non-numeric base counts as 0)
    - ``array_union``: append operands not already present
    - ``array_remove``: drop every occurrence of each operand
    """

    kind: str  # "increment" | "array_union" | "array_remove"
    operand: Any

    def __post_init__(self) -> None:
        if self.kind not in ("increment", "array_union", "array_remove"):
            raise InvalidArgument(f"unknown transform kind {self.kind!r}")


def increment(amount: int | float) -> FieldTransform:
    """Numeric increment transform (e.g. a counter bump without a read)."""
    if isinstance(amount, bool) or not isinstance(amount, (int, float)):
        raise InvalidArgument("increment needs a number")
    return FieldTransform("increment", amount)


def array_union(*values: Any) -> FieldTransform:
    """Append each value missing from the array field."""
    for value in values:
        validate_value(value)
    return FieldTransform("array_union", list(values))


def array_remove(*values: Any) -> FieldTransform:
    """Remove every occurrence of each value from the array field."""
    for value in values:
        validate_value(value)
    return FieldTransform("array_remove", list(values))


def apply_transform(transform: FieldTransform, base: Any) -> Any:
    """Resolve a transform against the field's previous value."""
    if transform.kind == "increment":
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            base = 0
        return base + transform.operand
    current = list(base) if isinstance(base, list) else []
    if transform.kind == "array_union":
        for value in transform.operand:
            if not any(compare_values(value, item) == 0 for item in current):
                current.append(value)
        return current
    # array_remove
    return [
        item
        for item in current
        if not any(compare_values(value, item) == 0 for value in transform.operand)
    ]

#: 64-bit integer bounds (Firestore integers are int64).
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True, slots=True)
@total_ordering
class Timestamp:
    """A microsecond-precision timestamp value."""

    micros: int

    def __post_init__(self) -> None:
        if not isinstance(self.micros, int):
            raise InvalidArgument("Timestamp takes integer microseconds")

    def __lt__(self, other: "Timestamp") -> bool:
        return self.micros < other.micros

    def __repr__(self) -> str:
        return f"Timestamp({self.micros})"


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A latitude/longitude pair."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.latitude <= 90.0):
            raise InvalidArgument(f"latitude {self.latitude} out of range")
        if not (-180.0 <= self.longitude <= 180.0):
            raise InvalidArgument(f"longitude {self.longitude} out of range")


@dataclass(frozen=True, slots=True)
class Reference:
    """A reference to another document, by its full path string."""

    path: str

    def segments(self) -> tuple[str, ...]:
        """The referenced path, split into segments."""
        return tuple(self.path.split("/"))


# Type-order ranks. NaN ranks between boolean and all other numbers.
_RANK_NULL = 0
_RANK_BOOL = 1
_RANK_NAN = 2
_RANK_NUMBER = 3
_RANK_TIMESTAMP = 4
_RANK_STRING = 5
_RANK_BYTES = 6
_RANK_REFERENCE = 7
_RANK_GEOPOINT = 8
_RANK_ARRAY = 9
_RANK_MAP = 10


def type_rank(value: Any) -> int:
    """The cross-type ordering rank of ``value``."""
    if value is None:
        return _RANK_NULL
    if isinstance(value, bool):
        return _RANK_BOOL
    if isinstance(value, float) and math.isnan(value):
        return _RANK_NAN
    if isinstance(value, (int, float)):
        return _RANK_NUMBER
    if isinstance(value, Timestamp):
        return _RANK_TIMESTAMP
    if isinstance(value, str):
        return _RANK_STRING
    if isinstance(value, bytes):
        return _RANK_BYTES
    if isinstance(value, Reference):
        return _RANK_REFERENCE
    if isinstance(value, GeoPoint):
        return _RANK_GEOPOINT
    if isinstance(value, list):
        return _RANK_ARRAY
    if isinstance(value, dict):
        return _RANK_MAP
    raise InvalidArgument(f"unsupported value type: {type(value).__name__}")


def validate_value(value: Any, depth: int = 0) -> None:
    """Reject values outside the Firestore data model.

    The SERVER_TIMESTAMP transform sentinel is accepted anywhere a value
    may appear; the Backend substitutes it before storage.
    """
    if depth > 20:
        raise InvalidArgument("value nesting exceeds 20 levels")
    if value is SERVER_TIMESTAMP or isinstance(value, FieldTransform):
        return
    rank = type_rank(value)  # raises for unsupported types
    if rank == _RANK_NUMBER and isinstance(value, int):
        if not (INT64_MIN <= value <= INT64_MAX):
            raise InvalidArgument(f"integer {value} outside int64 range")
    elif rank == _RANK_ARRAY:
        for item in value:
            if isinstance(item, list):
                raise InvalidArgument("arrays may not directly contain arrays")
            validate_value(item, depth + 1)
    elif rank == _RANK_MAP:
        for key, item in value.items():
            if not isinstance(key, str):
                raise InvalidArgument("map keys must be strings")
            if not key:
                raise InvalidArgument("map keys must be non-empty")
            validate_value(item, depth + 1)


def compare_values(a: Any, b: Any) -> int:
    """Three-way comparison in Firestore's total order (-1, 0, or 1)."""
    # same-type strings and numbers compare natively; NaN (which is not
    # equal to itself) keeps its own rank below
    kind = type(a)
    if kind is type(b) and (
        kind is str or kind is int or (kind is float and a == a and b == b)
    ):
        return (a > b) - (a < b)
    rank_a, rank_b = type_rank(a), type_rank(b)
    if rank_a != rank_b:
        return -1 if rank_a < rank_b else 1
    if rank_a in (_RANK_NULL, _RANK_NAN):
        return 0
    if rank_a == _RANK_BOOL:
        return (a > b) - (a < b)
    if rank_a == _RANK_NUMBER:
        # CPython compares int and float by exact numeric value
        return (a > b) - (a < b)
    if rank_a == _RANK_TIMESTAMP:
        return (a.micros > b.micros) - (a.micros < b.micros)
    if rank_a in (_RANK_STRING, _RANK_BYTES):
        return (a > b) - (a < b)
    if rank_a == _RANK_REFERENCE:
        sa, sb = a.segments(), b.segments()
        return (sa > sb) - (sa < sb)
    if rank_a == _RANK_GEOPOINT:
        ka = (a.latitude, a.longitude)
        kb = (b.latitude, b.longitude)
        return (ka > kb) - (ka < kb)
    if rank_a == _RANK_ARRAY:
        for item_a, item_b in zip(a, b):
            cmp = compare_values(item_a, item_b)
            if cmp != 0:
                return cmp
        return (len(a) > len(b)) - (len(a) < len(b))
    # maps: compare (key, value) pairs in ascending key order
    items_a = sorted(a.items())
    items_b = sorted(b.items())
    for (key_a, val_a), (key_b, val_b) in zip(items_a, items_b):
        if key_a != key_b:
            return -1 if key_a < key_b else 1
        cmp = compare_values(val_a, val_b)
        if cmp != 0:
            return cmp
    return (len(items_a) > len(items_b)) - (len(items_a) < len(items_b))


class SortKey:
    """Adapter making any Firestore value usable as a Python sort key."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "SortKey") -> bool:
        return compare_values(self.value, other.value) < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortKey):
            return NotImplemented
        return compare_values(self.value, other.value) == 0

    def __hash__(self) -> int:  # pragma: no cover - not hashed in practice
        return 0


def values_equal(a: Any, b: Any) -> bool:
    """Equality in Firestore semantics (NaN equals NaN for sorting)."""
    return compare_values(a, b) == 0


def iter_leaf_fields(data: dict, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """Flatten nested maps into dotted field paths.

    Yields (dotted_path, value) for every non-map value; arrays are leaves
    (their elements are handled by the indexing layer's array flattening).
    This is the flattening the paper describes: "Firestore indexing
    flattens out fields such as arrays or maps to index each element".
    """
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            if value:
                yield from iter_leaf_fields(value, path)
            else:
                yield path, value  # empty map is itself indexable
        else:
            yield path, value


def get_field(data: dict, dotted_path: str) -> tuple[bool, Any]:
    """Look up a dotted field path; returns (present, value)."""
    node: Any = data
    for part in dotted_path.split("."):
        if not isinstance(node, dict) or part not in node:
            return (False, None)
        node = node[part]
    return (True, node)


def set_field(data: dict, dotted_path: str, value: Any) -> None:
    """Set a dotted field path, creating intermediate maps."""
    parts = dotted_path.split(".")
    node = data
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            child = {}
            node[part] = child
        node = child
    node[parts[-1]] = value


def delete_field(data: dict, dotted_path: str) -> bool:
    """Remove a dotted field path; returns True if it existed."""
    parts = dotted_path.split(".")
    node: Any = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    if isinstance(node, dict) and parts[-1] in node:
        del node[parts[-1]]
        return True
    return False
