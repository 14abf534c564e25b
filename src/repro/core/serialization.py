"""Binary document serialization (the Entities row payload).

"The key-value pairs that constitute a schemaless Firestore document['s]
contents are encoded in a protocol buffer stored in a single column"
(paper section IV-D1). This module is that protocol-buffer-like wire
format: a compact tag-length-value binary encoding with varints. Unlike
:mod:`repro.core.encoding` it is *not* order-preserving — it optimizes for
size and round-trip fidelity instead.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import InvalidArgument
from repro.core.values import SERVER_TIMESTAMP, GeoPoint, Reference, Timestamp

_WIRE_NULL = 0
_WIRE_FALSE = 1
_WIRE_TRUE = 2
_WIRE_INT = 3
_WIRE_DOUBLE = 4
_WIRE_TIMESTAMP = 5
_WIRE_STRING = 6
_WIRE_BYTES = 7
_WIRE_REFERENCE = 8
_WIRE_GEOPOINT = 9
_WIRE_ARRAY = 10
_WIRE_MAP = 11
# only appears in client-side persisted mutation queues; the Backend
# resolves the transform before anything reaches the Entities table
_WIRE_SERVER_TIMESTAMP = 12

_DOUBLE = struct.Struct(">d")
_GEOPOINT = struct.Struct(">dd")


def _write_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise InvalidArgument("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise InvalidArgument("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise InvalidArgument("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 127)  # works for arbitrary precision


def _write_value(value: Any, out: bytearray) -> None:
    if value is SERVER_TIMESTAMP:
        out.append(_WIRE_SERVER_TIMESTAMP)
    elif value is None:
        out.append(_WIRE_NULL)
    elif isinstance(value, bool):
        out.append(_WIRE_TRUE if value else _WIRE_FALSE)
    elif isinstance(value, int):
        out.append(_WIRE_INT)
        _write_varint(_zigzag(value), out)
    elif isinstance(value, float):
        out.append(_WIRE_DOUBLE)
        out += _DOUBLE.pack(value)
    elif isinstance(value, Timestamp):
        out.append(_WIRE_TIMESTAMP)
        _write_varint(_zigzag(value.micros), out)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_WIRE_STRING)
        _write_varint(len(raw), out)
        out += raw
    elif isinstance(value, bytes):
        out.append(_WIRE_BYTES)
        _write_varint(len(value), out)
        out += value
    elif isinstance(value, Reference):
        raw = value.path.encode("utf-8")
        out.append(_WIRE_REFERENCE)
        _write_varint(len(raw), out)
        out += raw
    elif isinstance(value, GeoPoint):
        out.append(_WIRE_GEOPOINT)
        out += _GEOPOINT.pack(value.latitude, value.longitude)
    elif isinstance(value, list):
        out.append(_WIRE_ARRAY)
        _write_varint(len(value), out)
        for item in value:
            _write_value(item, out)
    elif isinstance(value, dict):
        out.append(_WIRE_MAP)
        _write_varint(len(value), out)
        for key in sorted(value):
            raw = key.encode("utf-8")
            _write_varint(len(raw), out)
            out += raw
            _write_value(value[key], out)
    else:
        raise InvalidArgument(f"unsupported value type: {type(value).__name__}")


def _read_value(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode the value at ``offset``; returns ``(value, next offset)``.

    One pass per container: the loop decodes each item in line and
    recurses only into nested arrays and maps. A lone scalar is read as
    the single item of a one-item sequence. Single-byte varints (small
    ints, short strings, small counts) are read in line too.
    """
    end = len(data)
    if offset >= end:
        raise InvalidArgument("truncated value")
    wire = data[offset]
    keyed = wire == _WIRE_MAP
    lone = not keyed and wire != _WIRE_ARRAY
    result: Any = {} if keyed else []
    if lone:
        count = 1
    else:
        offset += 1
        if offset < end and data[offset] < 0x80:
            count = data[offset]
            offset += 1
        else:
            count, offset = _read_varint(data, offset)
    try:
        for _ in range(count):
            if keyed:
                if offset < end and data[offset] < 0x80:
                    length = data[offset]
                    offset += 1
                else:
                    length, offset = _read_varint(data, offset)
                key = data[offset : offset + length].decode("utf-8")
                offset += length
            if offset >= end:
                raise InvalidArgument("truncated value")
            wire = data[offset]
            offset += 1
            if wire == _WIRE_STRING or wire == _WIRE_BYTES or wire == _WIRE_REFERENCE:
                if offset < end and data[offset] < 0x80:
                    length = data[offset]
                    offset += 1
                else:
                    length, offset = _read_varint(data, offset)
                if offset + length > end:
                    raise InvalidArgument("truncated string/bytes")
                raw = data[offset : offset + length]
                offset += length
                if wire == _WIRE_BYTES:
                    value = bytes(raw)
                else:
                    value = raw.decode("utf-8")
                    if wire == _WIRE_REFERENCE:
                        value = Reference(value)
            elif wire == _WIRE_INT or wire == _WIRE_TIMESTAMP:
                if offset < end and data[offset] < 0x80:
                    value = data[offset]
                    offset += 1
                else:
                    value, offset = _read_varint(data, offset)
                value = (value >> 1) ^ -(value & 1)
                if wire == _WIRE_TIMESTAMP:
                    value = Timestamp(value)
            elif wire == _WIRE_DOUBLE:
                if offset + 8 > end:
                    raise InvalidArgument("truncated double")
                (value,) = _DOUBLE.unpack_from(data, offset)
                offset += 8
            elif wire == _WIRE_TRUE:
                value = True
            elif wire == _WIRE_FALSE:
                value = False
            elif wire == _WIRE_MAP or wire == _WIRE_ARRAY:
                value, offset = _read_value(data, offset - 1)
            elif wire == _WIRE_NULL:
                value = None
            elif wire == _WIRE_GEOPOINT:
                if offset + 16 > end:
                    raise InvalidArgument("truncated geopoint")
                value = GeoPoint(*_GEOPOINT.unpack_from(data, offset))
                offset += 16
            elif wire == _WIRE_SERVER_TIMESTAMP:
                value = SERVER_TIMESTAMP
            else:
                break  # an unknown wire type, reported below
            if keyed:
                result[key] = value
            else:
                result.append(value)
        else:
            return (result[0] if lone else result), offset
    except UnicodeDecodeError:
        # a string, reference or map key that is not valid UTF-8
        raise InvalidArgument("malformed UTF-8 in document") from None
    raise InvalidArgument(f"unknown wire type {wire}")


def serialize_document(data: dict) -> bytes:
    """Serialize a document's field map to bytes."""
    if not isinstance(data, dict):
        raise InvalidArgument("document data must be a map")
    out = bytearray()
    _write_value(data, out)
    return bytes(out)


def deserialize_document(raw: bytes) -> dict:
    """Inverse of :func:`serialize_document`."""
    value, offset = _read_value(raw, 0)
    if offset != len(raw):
        raise InvalidArgument("trailing bytes after document")
    if not isinstance(value, dict):
        raise InvalidArgument("serialized payload is not a document")
    return value
