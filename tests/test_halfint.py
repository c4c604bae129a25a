from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from segtriples import HalfInt

twices = st.integers(min_value=-200, max_value=200)


def test_construction_from_int_and_float():
    assert HalfInt(3).twice == 6
    assert HalfInt(-2).twice == -4
    assert HalfInt(0.5).twice == 1
    assert HalfInt(-2.5).twice == -5
    assert HalfInt(HalfInt(7)).twice == 14


def test_construction_rejects_non_halves():
    for value in (0.3, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            HalfInt(value)
    with pytest.raises(TypeError):
        HalfInt("1")
    with pytest.raises(TypeError):
        HalfInt(True)


def test_from_twice_wants_an_int():
    assert HalfInt.from_twice(5).twice == 5
    with pytest.raises(TypeError):
        HalfInt.from_twice(1.0)
    with pytest.raises(TypeError):
        HalfInt.from_twice(True)


@pytest.mark.parametrize("text,twice", [
    ("2", 4), ("-3", -6), ("0", 0),
    ("1/2", 1), ("-5/2", -5), ("+7/2", 7), (" 3 ", 6),
])
def test_parse_literals(text, twice):
    assert HalfInt.parse(text).twice == twice


# from "\u0663" on, spellings of a value other than its one text
@pytest.mark.parametrize("text", ["x", "1/3", "3.5", "", "1/2/2", "2/", "/2", "\u0663", "4/2", "0/2", "-6/2",
                                  "-0", "+0", "007", "-03", "01/2", "1_0"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        HalfInt.parse(text)


def test_str_uses_halves_notation():
    assert str(HalfInt(2)) == "2"
    assert str(HalfInt.from_twice(3)) == "3/2"
    assert str(HalfInt.from_twice(-1)) == "-1/2"
    assert str(HalfInt(0)) == "0"


@given(twices)
def test_parse_str_round_trip(n):
    x = HalfInt.from_twice(n)
    assert HalfInt.parse(str(x)) == x


def test_arithmetic():
    assert HalfInt(1) + HalfInt(0.5) == HalfInt(1.5)
    assert HalfInt(1) - 3 == HalfInt(-2)
    assert 3 - HalfInt(1) == HalfInt(2)
    assert -HalfInt(0.5) == HalfInt(-0.5)
    assert HalfInt(1.5) * 2 == HalfInt(3)
    assert 2 * HalfInt(1.5) == HalfInt(3)


@given(twices, twices)
def test_add_sub_inverse(m, n):
    a, b = HalfInt.from_twice(m), HalfInt.from_twice(n)
    assert a + b - b == a
    assert -(-a) == a


def test_hash_agrees_with_numbers():
    # HalfInt(2) must land in the same dict slot as 2 and 2.0
    assert hash(HalfInt(2)) == hash(2)
    assert hash(HalfInt.from_twice(5)) == hash(2.5)
    assert HalfInt(2) == 2
    assert {HalfInt(2): "a"}[2] == "a"


@given(st.integers())
def test_hash_agrees_with_numbers_at_every_size(n):
    # an unbounded int: a float detour loses precision past 2**53 and
    # overflows past about 10**308
    assert hash(HalfInt(n)) == hash(n)
    assert {HalfInt(n): "a"}[n] == "a"
    assert hash(HalfInt.from_twice(n)) == hash(Fraction(n, 2))


def test_hash_of_huge_values():
    assert hash(HalfInt(2**60 + 1)) == hash(2**60 + 1)
    assert hash(HalfInt(10**400)) == hash(10**400)
    assert hash(HalfInt.from_twice(-(10**400) - 1)) == hash(Fraction(-(10**400) - 1, 2))


@given(twices, twices)
def test_ordering_matches_twice(m, n):
    a, b = HalfInt.from_twice(m), HalfInt.from_twice(n)
    assert (a < b) == (m < n)
    assert (a <= b) == (m <= n)
    assert (a == b) == (m == n)
    k = n // 2  # and against an int
    assert (a == k) == (m == 2 * k)
    assert (a < k) == (m < 2 * k)
    assert (a >= k) == (m >= 2 * k)


def test_ordering_against_ints():
    assert HalfInt.from_twice(3) < 2
    assert HalfInt.from_twice(5) > 2
    assert sorted([HalfInt(2), HalfInt.from_twice(1), HalfInt(-1)]) == [
        HalfInt(-1), HalfInt.from_twice(1), HalfInt(2)]


def test_bool_and_float_comparisons():
    # bool is not a half-integer and a float is never equal to a HalfInt
    assert HalfInt(1) != True and True != HalfInt(1)
    assert not HalfInt(1) == 1.0
    with pytest.raises(TypeError):
        HalfInt(1) < True


def test_of_keeps_a_given_value():
    h = HalfInt.from_twice(3)
    assert HalfInt.of(h) is h
    assert HalfInt.of(2) == HalfInt(2) and HalfInt.of(-1.5) == HalfInt.from_twice(-3)
    with pytest.raises(TypeError):
        HalfInt.of(True)
    with pytest.raises(ValueError):
        HalfInt.of(0.25)


def test_is_integer_and_int_conversion():
    assert HalfInt(4).is_integer
    assert not HalfInt.from_twice(3).is_integer
    assert int(HalfInt(4)) == 4
    with pytest.raises(ValueError):
        int(HalfInt.from_twice(3))


def test_range_inclusive_steps_by_one():
    got = list(HalfInt.range_inclusive(HalfInt(0.5), HalfInt(3.5)))
    assert got == [HalfInt(0.5), HalfInt(1.5), HalfInt(2.5), HalfInt(3.5)]
    assert list(HalfInt.range_inclusive(2, 2)) == [HalfInt(2)]
    assert list(HalfInt.range_inclusive(3, 2)) == []


def test_range_inclusive_never_crosses_parity():
    for x in HalfInt.range_inclusive(HalfInt(-1.5), HalfInt(2)):
        assert not x.is_integer
