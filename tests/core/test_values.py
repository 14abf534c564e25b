import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.core.values import (
    GeoPoint,
    Reference,
    SERVER_TIMESTAMP,
    SortKey,
    Timestamp,
    compare_values,
    delete_field,
    get_field,
    iter_leaf_fields,
    set_field,
    type_rank,
    validate_value,
    values_equal,
)


class TestTypeOrder:
    def test_cross_type_order(self):
        ordered = [
            None,
            False,
            True,
            float("nan"),
            -10,
            3.5,
            Timestamp(100),
            "string",
            b"bytes",
            Reference("col/doc"),
            GeoPoint(1.0, 2.0),
            [1, 2],
            {"a": 1},
        ]
        for i, a in enumerate(ordered):
            for j, b in enumerate(ordered):
                expected = (i > j) - (i < j)
                assert compare_values(a, b) == expected, (a, b)

    def test_bool_is_not_a_number(self):
        assert type_rank(True) != type_rank(1)
        assert compare_values(True, 0) < 0  # booleans sort before numbers


class TestNumbers:
    def test_int_double_interleave(self):
        assert compare_values(1, 1.5) < 0
        assert compare_values(2, 1.5) > 0
        assert compare_values(5, 5.0) == 0

    def test_exact_comparison_beyond_double_precision(self):
        big = 2**60
        assert compare_values(big, big + 1) < 0
        assert compare_values(float(big), big + 1) < 0

    def test_infinities(self):
        assert compare_values(float("-inf"), -(2**62)) < 0
        assert compare_values(float("inf"), 2**62) > 0

    def test_nan_sorts_before_numbers(self):
        assert compare_values(float("nan"), float("-inf")) < 0
        assert compare_values(float("nan"), float("nan")) == 0

    def test_negative_zero_equals_zero(self):
        assert compare_values(-0.0, 0.0) == 0
        assert compare_values(-0.0, 0) == 0


class TestComplexValues:
    def test_array_prefix_sorts_first(self):
        assert compare_values([1], [1, 2]) < 0
        assert compare_values([1, 3], [1, 2, 5]) > 0

    def test_map_order_by_sorted_keys(self):
        assert compare_values({"a": 1}, {"b": 0}) < 0
        assert compare_values({"a": 1}, {"a": 2}) < 0
        assert compare_values({"a": 1}, {"a": 1, "b": 0}) < 0

    def test_reference_segment_order(self):
        # 'a/b' < 'a!' as paths even though '!' < '/' as characters
        assert compare_values(Reference("a/b"), Reference("a!")) < 0
        assert compare_values(Reference("a"), Reference("a/b")) < 0

    def test_geopoint_order(self):
        assert compare_values(GeoPoint(1, 5), GeoPoint(2, 0)) < 0
        assert compare_values(GeoPoint(1, 5), GeoPoint(1, 6)) < 0

    def test_timestamps(self):
        assert compare_values(Timestamp(5), Timestamp(6)) < 0
        assert Timestamp(5) < Timestamp(6)


class TestValidation:
    def test_accepts_model_values(self):
        validate_value(
            {
                "s": "x",
                "n": 1,
                "d": 2.5,
                "b": True,
                "nil": None,
                "arr": [1, "two"],
                "map": {"nested": {"deep": 1}},
                "geo": GeoPoint(0, 0),
                "ts": Timestamp(0),
                "ref": Reference("a/b"),
                "bytes": b"\x00",
            }
        )

    def test_rejects_unsupported_types(self):
        with pytest.raises(InvalidArgument):
            validate_value({"bad": object()})
        with pytest.raises(InvalidArgument):
            validate_value({"bad": set()})

    def test_rejects_nested_arrays(self):
        with pytest.raises(InvalidArgument):
            validate_value({"a": [[1]]})

    def test_rejects_int64_overflow(self):
        with pytest.raises(InvalidArgument):
            validate_value({"n": 2**63})
        validate_value({"n": 2**63 - 1})

    def test_rejects_non_string_map_keys(self):
        with pytest.raises(InvalidArgument):
            validate_value({"m": {1: "x"}})

    def test_rejects_empty_map_keys(self):
        with pytest.raises(InvalidArgument):
            validate_value({"m": {"": "x"}})

    def test_rejects_excessive_nesting(self):
        deep: dict = {"v": 1}
        for _ in range(25):
            deep = {"d": deep}
        with pytest.raises(InvalidArgument):
            validate_value(deep)

    def test_server_timestamp_sentinel_allowed(self):
        validate_value({"at": SERVER_TIMESTAMP})

    def test_geopoint_range_validation(self):
        with pytest.raises(InvalidArgument):
            GeoPoint(91, 0)
        with pytest.raises(InvalidArgument):
            GeoPoint(0, 181)


class TestFieldPaths:
    def test_iter_leaf_fields_flattens_maps(self):
        data = {"a": 1, "m": {"x": 2, "y": {"z": 3}}, "arr": [1, 2]}
        leaves = dict(iter_leaf_fields(data))
        assert leaves == {"a": 1, "m.x": 2, "m.y.z": 3, "arr": [1, 2]}

    def test_empty_map_is_a_leaf(self):
        assert dict(iter_leaf_fields({"m": {}})) == {"m": {}}

    def test_get_field(self):
        data = {"m": {"x": 1}}
        assert get_field(data, "m.x") == (True, 1)
        assert get_field(data, "m.missing") == (False, None)
        assert get_field(data, "m") == (True, {"x": 1})
        assert get_field(data, "m.x.deeper") == (False, None)

    def test_set_field_creates_intermediates(self):
        data: dict = {}
        set_field(data, "a.b.c", 7)
        assert data == {"a": {"b": {"c": 7}}}
        set_field(data, "a.b.c", 8)
        assert data["a"]["b"]["c"] == 8

    def test_set_field_replaces_non_map(self):
        data = {"a": 5}
        set_field(data, "a.b", 1)
        assert data == {"a": {"b": 1}}

    def test_delete_field(self):
        data = {"a": {"b": 1, "c": 2}}
        assert delete_field(data, "a.b") is True
        assert data == {"a": {"c": 2}}
        assert delete_field(data, "a.b") is False
        assert delete_field(data, "x.y") is False


def test_sort_key_sorts_mixed_values():
    values = [{"z": 1}, "str", 3, None, [0], True, 2.5]
    ordered = sorted(values, key=SortKey)
    assert ordered[0] is None
    assert ordered[1] is True
    assert ordered[-1] == {"z": 1}


def test_values_equal():
    assert values_equal(5, 5.0)
    assert values_equal(float("nan"), float("nan"))
    assert not values_equal(5, "5")


@st.composite
def firestore_values(draw, depth=0):
    base = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
        st.binary(max_size=8),
        st.builds(Timestamp, st.integers(min_value=-(2**40), max_value=2**40)),
    )
    if depth >= 2:
        return draw(base)
    return draw(
        st.one_of(
            base,
            st.lists(firestore_values(depth=2), max_size=3),
            st.dictionaries(
                st.text(min_size=1, max_size=4), firestore_values(depth=depth + 1), max_size=3
            ),
        )
    )


@settings(max_examples=300, deadline=None)
@given(a=firestore_values(), b=firestore_values(), c=firestore_values())
def test_property_compare_is_a_total_order(a, b, c):
    # antisymmetry
    assert compare_values(a, b) == -compare_values(b, a)
    # reflexivity
    assert compare_values(a, a) == 0
    # transitivity (on this triple)
    ab, bc, ac = compare_values(a, b), compare_values(b, c), compare_values(a, c)
    if ab <= 0 and bc <= 0:
        assert ac <= 0
    if ab >= 0 and bc >= 0:
        assert ac >= 0


def _exact(value):
    """The oracle's numeric key: an exact Fraction, or +/-inf as a float
    (infinities compare correctly against every Fraction)."""
    if isinstance(value, float) and math.isinf(value):
        return value
    return Fraction(value)


#: numbers where double rounding and int/float mixing bite
_EDGE_NUMBERS = [
    2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1,
    float(2**53), float(2**53 + 2), -float(2**53),
    2**63 - 1, -(2**63), float(2**63), -float(2**63),
    0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    math.inf, -math.inf, 1, 1.0, -1, 0.5,
]

_numbers = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
)


@settings(max_examples=2000, deadline=None)
@given(a=_numbers, b=_numbers)
def test_property_number_order_is_exact(a, b):
    """int/double comparison agrees with exact rational arithmetic."""
    fa, fb = _exact(a), _exact(b)
    assert compare_values(a, b) == (fa > fb) - (fa < fb)
