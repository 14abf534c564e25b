import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.core.encoding import (
    ASCENDING,
    DESCENDING,
    decode_doc_name,
    decode_skip_value,
    encode_doc_name,
    encode_tuple,
    encode_value,
    join_array,
    prefix_successor,
)
from repro.core.values import GeoPoint, Reference, Timestamp, compare_values

from tests.core.test_values import firestore_values


SAMPLES = [
    None,
    False,
    True,
    float("nan"),
    float("-inf"),
    -(2**62),
    -1.5,
    0,
    0.5,
    1,
    2**60,
    2**60 + 1,
    float("inf"),
    Timestamp(-5),
    Timestamp(0),
    Timestamp(10**15),
    "",
    "a",
    "a\x00b",
    "ab",
    "b",
    b"",
    b"\x00",
    b"\x00\x01",
    b"\x01",
    Reference("a"),
    Reference("a/b"),
    Reference("ab"),
    GeoPoint(-10, 5),
    GeoPoint(0, 0),
    [],
    [1],
    [1, 2],
    [2],
    {},
    {"a": 1},
    {"a": 1, "b": 2},
    {"b": 0},
]


class TestOrderPreservation:
    def test_samples_pairwise_ascending(self):
        for a in SAMPLES:
            for b in SAMPLES:
                cmp = compare_values(a, b)
                ea, eb = encode_value(a), encode_value(b)
                enc_cmp = (ea > eb) - (ea < eb)
                assert enc_cmp == cmp, (a, b)

    def test_samples_pairwise_descending(self):
        for a in SAMPLES:
            for b in SAMPLES:
                cmp = compare_values(a, b)
                ea = encode_value(a, DESCENDING)
                eb = encode_value(b, DESCENDING)
                enc_cmp = (ea > eb) - (ea < eb)
                assert enc_cmp == -cmp, (a, b)

    def test_equal_values_encode_identically(self):
        assert encode_value(5) == encode_value(5.0)
        assert encode_value(-0.0) == encode_value(0.0)
        assert encode_value(float("nan")) == encode_value(float("nan"))


class TestSelfDelimiting:
    @pytest.mark.parametrize("value", SAMPLES)
    def test_skip_value_consumes_exactly(self, value):
        encoded = encode_value(value)
        assert decode_skip_value(encoded, 0) == len(encoded)

    def test_skip_value_in_concatenation(self):
        encoded = encode_value("abc") + encode_value([1, {"k": b"\x00"}]) + encode_value(7)
        offset = decode_skip_value(encoded, 0)
        offset = decode_skip_value(encoded, offset)
        offset = decode_skip_value(encoded, offset)
        assert offset == len(encoded)

    def test_no_encoding_is_a_prefix_of_another(self):
        encodings = [encode_value(v) for v in SAMPLES]
        for i, a in enumerate(encodings):
            for j, b in enumerate(encodings):
                if a != b:
                    assert not b.startswith(a), (SAMPLES[i], SAMPLES[j])


class TestTuples:
    def test_tuple_mixed_directions(self):
        # (city asc, rating desc): same city, higher rating first
        t1 = encode_tuple(["SF", 4.8], [ASCENDING, DESCENDING])
        t2 = encode_tuple(["SF", 4.5], [ASCENDING, DESCENDING])
        t3 = encode_tuple(["NY", 5.0], [ASCENDING, DESCENDING])
        assert t3 < t1 < t2

    def test_tuple_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            encode_tuple([1, 2], [ASCENDING])


class TestDocNames:
    def test_roundtrip(self):
        segments = ("restaurants", "one", "ratings", "2")
        encoded = encode_doc_name(segments)
        decoded, end = decode_doc_name(encoded)
        assert decoded == segments
        assert end == len(encoded)

    def test_roundtrip_with_nul_and_unicode(self):
        segments = ("c\x00l", "δοκ")
        decoded, _ = decode_doc_name(encode_doc_name(segments))
        assert decoded == segments

    def test_segmentwise_order(self):
        assert encode_doc_name(("a", "b")) < encode_doc_name(("ab",))
        assert encode_doc_name(("a",)) < encode_doc_name(("a", "b"))

    def test_descending_complements(self):
        a = encode_doc_name(("a",), DESCENDING)
        b = encode_doc_name(("b",), DESCENDING)
        assert b < a

    def test_truncated_rejected(self):
        encoded = encode_doc_name(("abc",))
        with pytest.raises(InvalidArgument):
            decode_doc_name(encoded[:-1][:-1] or b"\x01")


class TestPrefixSuccessor:
    def test_simple(self):
        assert prefix_successor(b"ab") == b"ac"

    def test_trailing_ff(self):
        assert prefix_successor(b"a\xff\xff") == b"b"

    def test_all_ff_unbounded(self):
        assert prefix_successor(b"\xff\xff") is None

    def test_bounds_prefix_range(self):
        prefix = b"key\x42"
        successor = prefix_successor(prefix)
        assert prefix < prefix + b"\x00" < prefix + b"\xff" * 4 < successor


def test_unknown_direction_rejected():
    with pytest.raises(InvalidArgument):
        encode_value(1, "sideways")


@settings(max_examples=300, deadline=None)
@given(a=firestore_values(), b=firestore_values())
def test_property_encoding_matches_compare(a, b):
    cmp = compare_values(a, b)
    ea, eb = encode_value(a), encode_value(b)
    assert ((ea > eb) - (ea < eb)) == cmp


@settings(max_examples=200, deadline=None)
@given(value=firestore_values())
def test_property_skip_value_total(value):
    encoded = encode_value(value)
    assert decode_skip_value(encoded, 0) == len(encoded)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(firestore_values(), max_size=4))
def test_property_join_array_is_the_list_encoding(values):
    assert join_array([encode_value(v) for v in values]) == encode_value(values)


@settings(max_examples=200, deadline=None)
@given(
    segments=st.lists(
        st.text(min_size=1, max_size=6).filter(lambda s: "/" not in s and s not in (".", "..")),
        min_size=1,
        max_size=4,
    )
)
def test_property_doc_name_roundtrip_and_order(segments):
    encoded = encode_doc_name(tuple(segments))
    decoded, end = decode_doc_name(encoded)
    assert decoded == tuple(segments)
    assert end == len(encoded)
