"""Exact arithmetic on half-integers.

Twist exponents in this calculus live in (1/2)Z.  Floats would make
equality tests flaky and hashing unsound, so a value x is stored as the
integer 2x and all arithmetic stays in Z.
"""

from __future__ import annotations

import functools
import re
import sys

# one spelling per value: ASCII digits, no leading zero, and no sign on zero;
# a half-integer may carry a plus sign, and its halves numerator is odd
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
_HALF_RE = re.compile(r"(0|[+-]?[1-9][0-9]*)(/2)?")
_HALF_MOD_HASH_PRIME = (sys.hash_info.modulus + 1) // 2


def _immutable(self, *_):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _half_text(twice: int) -> str:
    """The text of twice/2: "3", "-2", or the halves notation "5/2", "-1/2"."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


def _parse_int(text: str, what: str) -> int:
    """The integer ``text`` spells as 0 or as -?[1-9][0-9]*, its one text;
    any other spelling raises ValueError naming it as ``what``."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(text)


@functools.total_ordering
class HalfInt:
    """An element of (1/2)Z with exact comparisons and hashing.

    Construct from an int, another HalfInt, or a float that is an exact
    multiple of 1/2.  ``HalfInt.from_twice(n)`` builds n/2 directly.
    Values are frozen, so ``HalfInt.of(v)`` returns a given HalfInt
    itself and converts anything else.
    """

    __slots__ = ("twice",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, value=0):
        if isinstance(value, HalfInt):
            _set_twice(self, value.twice)
        elif isinstance(value, bool):
            raise TypeError("bool is not a half-integer")
        elif isinstance(value, int):
            _set_twice(self, 2 * value)
        elif isinstance(value, float):
            if not (value * 2).is_integer():  # also refuses inf and nan
                raise ValueError(f"{value!r} is not a multiple of 1/2")
            _set_twice(self, int(value * 2))
        else:
            raise TypeError(f"cannot build HalfInt from {type(value).__name__}")

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise TypeError("from_twice expects an int")
        obj = cls.__new__(cls)
        _set_twice(obj, twice)
        return obj

    @classmethod
    def of(cls, value) -> "HalfInt":
        """value as a HalfInt, keeping a given one: HalfInts are frozen."""
        return value if isinstance(value, HalfInt) else cls(value)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "2", "-3", "+3" or the halves notation "1/2", "-5/2", "+7/2",
        around whitespace; leading zeros, "-0", "+0", non-ASCII digits and an
        even numerator over 2 are refused."""
        m = _HALF_RE.fullmatch(text.strip())
        if m and not m.group(2):
            return cls(int(m.group(1)))
        if m and int(m.group(1)) % 2:
            return cls.from_twice(int(m.group(1)))
        raise ValueError(f"not a half-integer literal: {text.strip()!r}")

    @staticmethod
    def range_inclusive(lo, hi):
        """Yield lo, lo+1, ... while the value stays <= hi."""
        for twice in range(HalfInt.of(lo).twice, HalfInt.of(hi).twice + 1, 2):
            yield HalfInt.from_twice(twice)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def _coerce(self, other):
        if isinstance(other, HalfInt):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return HalfInt(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return HalfInt.from_twice(self.twice + other.twice)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return HalfInt.from_twice(self.twice - other.twice)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return HalfInt.from_twice(other.twice - self.twice)

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __mul__(self, other):
        # scalar multiples by integers only; general products leave (1/2)Z
        if isinstance(other, int) and not isinstance(other, bool):
            return HalfInt.from_twice(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.twice == other.twice

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.twice < other.twice

    def __hash__(self):
        # Python's hash of the rational twice/2, in integers only (times the
        # inverse of 2 modulo the hash prime), so it agrees with hash(int),
        # hash(float) and hash(Fraction) at any size
        return hash(self.twice * _HALF_MOD_HASH_PRIME)

    def __str__(self):
        return _half_text(self.twice)

    def __repr__(self):
        return f"HalfInt({self})"


_set_twice = HalfInt.twice.__set__
