import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.core import serialization
from repro.core.serialization import deserialize_document, serialize_document
from repro.core.values import GeoPoint, Reference, Timestamp, values_equal

from tests.core.test_values import firestore_values


def roundtrip(data: dict) -> dict:
    return deserialize_document(serialize_document(data))


def test_roundtrip_all_types():
    data = {
        "null": None,
        "bool_t": True,
        "bool_f": False,
        "int": -(2**62),
        "double": 3.14159,
        "ts": Timestamp(1234567),
        "str": "hello δοκ",
        "bytes": b"\x00\xff",
        "ref": Reference("restaurants/one"),
        "geo": GeoPoint(-45.5, 120.25),
        "arr": [1, "two", None, [0]] if False else [1, "two", None],
        "map": {"nested": {"deep": [True]}},
        "empty_map": {},
        "empty_arr": [],
        "empty_str": "",
    }
    assert roundtrip(data) == data


def test_roundtrip_preserves_int_float_distinction():
    out = roundtrip({"i": 5, "f": 5.0})
    assert isinstance(out["i"], int)
    assert isinstance(out["f"], float)


def test_roundtrip_special_floats():
    out = roundtrip({"inf": float("inf"), "ninf": float("-inf"), "nan": float("nan")})
    assert out["inf"] == float("inf")
    assert out["ninf"] == float("-inf")
    assert math.isnan(out["nan"])


def test_roundtrip_negative_zero():
    out = roundtrip({"z": -0.0})
    assert math.copysign(1, out["z"]) == -1


def test_rejects_non_map_document():
    with pytest.raises(InvalidArgument):
        serialize_document([1, 2])  # type: ignore[arg-type]


def test_rejects_trailing_bytes():
    raw = serialize_document({"a": 1}) + b"\x00"
    with pytest.raises(InvalidArgument):
        deserialize_document(raw)


def test_rejects_truncation():
    raw = serialize_document({"a": "hello"})
    with pytest.raises(InvalidArgument):
        deserialize_document(raw[:-2])


def test_rejects_unknown_wire_type():
    with pytest.raises(InvalidArgument):
        deserialize_document(b"\xfa")


def test_compactness():
    """The binary format should be smaller than a debug repr."""
    data = {"field": "x" * 100, "n": 12345}
    assert len(serialize_document(data)) < len(repr(data).encode())


@settings(max_examples=300, deadline=None)
@given(value=firestore_values())
def test_property_roundtrip(value):
    data = {"v": value}
    out = roundtrip(data)
    # NaN breaks ==; compare through Firestore semantics
    from repro.core.values import values_equal

    assert values_equal(out["v"], value) or out == data


@pytest.mark.parametrize(
    "raw",
    [
        b"\x0b\x01\x01a\x06\x01\xff",  # {"a": <string 0xff>}
        b"\x0b\x01\x01\xff\x00",  # {<key 0xff>: null}
        b"\x0b\x01\x01a\x08\x02\xc3\x28",  # {"a": <reference c3 28>}
        b"\x0b\x01\x01a\x0a\x01\x06\x01\x80",  # {"a": [<string 0x80>]}
    ],
)
def test_malformed_utf8_is_invalid_argument(raw):
    with pytest.raises(InvalidArgument, match="malformed UTF-8"):
        deserialize_document(raw)


def _decodes_or_rejects(raw: bytes) -> None:
    """A payload either decodes to a document that round-trips, or is
    rejected with InvalidArgument; nothing else escapes."""
    try:
        data = deserialize_document(raw)
    except InvalidArgument:
        return
    assert values_equal(roundtrip(data), data)


@settings(max_examples=150, deadline=None)
@given(
    value=firestore_values(),
    position=st.integers(min_value=0),
    byte=st.integers(min_value=0, max_value=255),
)
def test_property_corrupt_payloads_decode_or_raise_invalid_argument(
    value, position, byte
):
    data = {"v": value, "s": "text", "m": {"k": [1, 2.5, "x"]}}
    raw = serialize_document(data)
    assert values_equal(deserialize_document(raw), data)
    for cut in range(len(raw)):
        _decodes_or_rejects(raw[:cut])
    corrupt = bytearray(raw)
    corrupt[position % len(raw)] = byte
    _decodes_or_rejects(bytes(corrupt))


def test_one_decode_call_per_container():
    """An eight-field document (string, int, double, bool, 3-array, nested
    map, text, counter) decodes in one _read_value call per container."""
    data = {
        "city": "city03",
        "age": 42,
        "score": 71.25,
        "active": True,
        "tags": ["a", "f", "k"],
        "addr": {"st": "CA", "zip": 94110},
        "text": "region serverless billing " * 10,
        "n": 0,
    }
    raw = serialize_document(data)
    code = serialization._read_value.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        out = deserialize_document(raw)
    finally:
        sys.setprofile(None)
    assert out == data
    assert list(out) == sorted(data)  # insertion order is wire order
    assert calls == 3
