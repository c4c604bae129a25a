"""Segment algebra over the Grothendieck group of general linear groups.

The basic objects are segments: intervals of consecutive twists
[nu^a rho, nu^b rho] of a fixed self-dual cuspidal symbol rho.  Products
of segments span the positive cone of the Grothendieck group, and the
comultiplication sends a segment to the sum of its suffix (x) prefix
splittings.  Everything here is exact integer combinatorics: symbols,
terms and sums are frozen (assigning an attribute raises
AttributeError), and sums are multisets with positive integer
coefficients.  Each term type builds one ``key`` over doubled integers
that decides equality, hashing and order; GL terms hash their key once,
when built.  HalfInt appears only where endpoints are given or read.
Text is written from the keys: a segment prints its doubled endpoints
through ``halfint._half_text``, and terms and sums join their parts'
texts.  A sum sorts its terms only to render them.

The public constructors check what they are given, then build through
their class's ``_trusted`` builder, the one place each value fills its
slots and hashes its key.  The builders, behind GL products, ``comult``
and the tower, take values a caller has built valid and neither sort nor
check.  One merge builds every GL product: ``_placed`` joins a factor of
one or two segments to the other factor's key-sorted run, or inserts
them by binary search, for ``*`` and for every row of the tower alike.
"""

from __future__ import annotations

from bisect import bisect_right

from .halfint import HalfInt, _half_text, _immutable

EVEN = "even"
ODD = "odd"


class GradeError(ValueError):
    """Raised when formal sums from different grades are combined."""


class SizeLimitError(ValueError):
    """An input whose work would pass a documented size limit, refused before any of it."""


def _checked_id(id, what: str):
    """ValueError unless id is a nonempty string free of what ends a text item, section or base."""
    if not isinstance(id, str) or not id:
        raise ValueError(f"{what} id must be a nonempty string")
    if any(ch.isspace() or ch in ";{}" for ch in id):
        raise ValueError(f"{what} id {id!r} must hold no whitespace, ';', '{{' or '}}'")


class CuspidalSymbol:
    """An irreducible self-dual cuspidal placeholder.

    Only three attributes matter to the calculus: an identifier, the
    rank of the group the symbol lives on, and the parity of the Jordan
    block sizes it supports (even when the symmetric-type L-function has
    a pole at the origin, odd otherwise).  Symbols compare by id; using
    one id with two different ranks or parities in a session is a
    configuration error, not something this class can detect.  Symbols
    are frozen and hash their id once, when built.
    """

    __slots__ = ("id", "rank", "parity", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, id: str, rank: int = 1, parity: str = ODD):
        _checked_id(id, "symbol")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be {EVEN!r} or {ODD!r}, got {parity!r}")
        for slot, value in zip(self.__slots__, (id, rank, parity, hash(id))):
            object.__setattr__(self, slot, value)

    def matches_parity(self, a: int) -> bool:
        """True when the integer a has this symbol's block parity."""
        return (a % 2 == 0) == (self.parity == EVEN)

    def block_error(self, a) -> str | None:
        """Why a is not a Jordan block at this symbol, or None."""
        if not isinstance(a, int) or isinstance(a, bool):
            return f"block {a!r} is not an integer"
        if a < 1 or not self.matches_parity(a):
            return f"block {a} is not a positive integer of {self.parity} parity at {self.id}"
        return None

    def blocks_upto(self, n: int) -> range:
        """The Jordan blocks at this symbol that are at most n, ascending."""
        return range(2 if self.parity == EVEN else 1, n + 1, 2)

    def __eq__(self, other):
        if not isinstance(other, CuspidalSymbol):
            return NotImplemented
        return self.id == other.id

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.id

    def __repr__(self):
        return f"CuspidalSymbol({self.id!r}, rank={self.rank}, parity={self.parity!r})"


class Segment:
    """The interval [nu^a rho, nu^b rho] of consecutive twists.

    The span b - a must be an integer >= -1; the value -1 encodes the
    empty segment, which acts as the unit of the term monoid and is
    silently dropped when terms are assembled.  The stored ``key``,
    (rho.id, 2a, 2b), decides equality, hash and canonical order; ``a``,
    ``b`` and ``center`` are HalfInt values built from it when read.
    Segments are frozen; the constructor checks and fills through ``_trusted``.
    """

    __slots__ = ("rho", "key")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, rho: CuspidalSymbol, a, b):
        if not isinstance(rho, CuspidalSymbol):
            raise TypeError("rho must be a CuspidalSymbol")
        a, b = HalfInt.of(a), HalfInt.of(b)
        span = b.twice - a.twice
        if span % 2:
            raise ValueError(f"segment endpoints must differ by an integer: a={a}, b={b}")
        if span < -2:
            raise ValueError(f"segment [{a},{b}] is shorter than empty")
        return cls._trusted(rho, (rho.id, a.twice, b.twice))

    @classmethod
    def _trusted(cls, rho: CuspidalSymbol, key: tuple) -> "Segment":
        """A segment from its symbol and a key (rho.id, 2a, 2b) of span
        at least -1; nothing is checked."""
        self = object.__new__(cls)
        _set_rho(self, rho)
        _set_seg_key(self, key)
        return self

    @property
    def a(self) -> HalfInt:
        return HalfInt.from_twice(self.key[1])

    @property
    def b(self) -> HalfInt:
        return HalfInt.from_twice(self.key[2])

    @property
    def is_empty(self) -> bool:
        return self.key[2] - self.key[1] == -2

    @property
    def length(self) -> int:
        return (self.key[2] - self.key[1]) // 2 + 1

    @property
    def degree(self) -> int:
        return self.length * self.rho.rank

    @property
    def center(self) -> HalfInt:
        """The exponent (a+b)/2 making the twisted segment unitarizable."""
        return HalfInt.from_twice((self.key[1] + self.key[2]) // 2)

    def __eq__(self, other):
        if not isinstance(other, Segment):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        rid, a, b = self.key
        if b - a == -2:
            return "1"
        return f"d([{_half_text(a)},{_half_text(b)}],{rid})"

    def __repr__(self):
        rid, a, b = self.key
        return f"Segment({rid}, {_half_text(a)}, {_half_text(b)})"


class GLTerm:
    """A formal product of nonempty segments, i.e. a multiset.

    The segments are kept in canonical order, and ``key`` is the tuple
    of their keys; it decides equality, hash and canonical order, and
    its hash is computed once, when the term is built.  The empty
    multiset is the unit of the Grothendieck-group product.  A product
    places a factor of at most two segments by ``_placed``.  Terms
    are frozen; the constructor checks and sorts, and fills through ``_trusted``.
    """

    __slots__ = ("segments", "key", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, segments=()):
        segs = list(segments)
        for s in segs:
            if not isinstance(s, Segment):
                raise TypeError("GLTerm holds Segment objects")
            if s.is_empty:
                raise ValueError("GLTerm must not contain empty segments")
        segs.sort(key=lambda s: s.key)
        return cls._trusted(tuple(segs), tuple(s.key for s in segs))

    @classmethod
    def _trusted(cls, segments: tuple, key: tuple) -> "GLTerm":
        """A term from nonempty segments already in key order, and their
        keys; nothing is sorted or checked."""
        self = object.__new__(cls)
        _set_segments(self, segments)
        _set_gl_key(self, key)
        _set_gl_hash(self, hash(key))
        return self

    @classmethod
    def of(cls, *segments) -> "GLTerm":
        """Build a term, dropping empty segments (they are the unit)."""
        return cls(s for s in segments if not isinstance(s, Segment) or not s.is_empty)

    @classmethod
    def unit(cls) -> "GLTerm":
        return cls(())

    @property
    def is_unit(self) -> bool:
        return not self.segments

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.segments)

    def __mul__(self, other):
        if not isinstance(other, GLTerm):
            return NotImplemented
        shed, tau = (other, self) if len(other.segments) <= len(self.segments) else (self, other)
        if len(shed.segments) > 2:
            return GLTerm(self.segments + other.segments)
        return _placed(shed, (tau,))[0]

    def __eq__(self, other):
        if not isinstance(other, GLTerm):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def __str__(self, seg_text=str):
        """The segments' texts, each written by ``seg_text``, joined by " x "; "1" for the unit."""
        return " x ".join(map(seg_text, self.segments)) or "1"

    def __repr__(self):
        return f"GLTerm({list(self.segments)!r})"


_set_rho = Segment.rho.__set__
_set_seg_key = Segment.key.__set__
_set_segments = GLTerm.segments.__set__
_set_gl_key = GLTerm.key.__set__
_set_gl_hash = GLTerm._hash.__set__


def _placed(shed: GLTerm, taus) -> list:
    """The products ``shed * tau`` for each GL term tau of taus, in order,
    where shed has at most two segments: a shed that lies after or before
    all of tau's run is joined to it, and otherwise each segment is placed
    into the run at its ``bisect_right`` position, found in tau's keys, so
    nothing is merged, sorted or checked.  ``*`` places its shorter factor
    here too; for both, a unit factor gives the other one itself."""
    if not shed.segments:
        return list(taus)
    trusted, out = GLTerm._trusted, []
    shed_segs, shed_keys = shed.segments, shed.key
    k, l = shed_keys[0], shed_keys[-1]
    for tau in taus:
        keys = tau.key
        if not keys:
            out.append(shed)
        elif keys[-1] <= k:
            out.append(trusted(tau.segments + shed_segs, keys + shed_keys))
        elif l <= keys[0]:
            out.append(trusted(shed_segs + tau.segments, shed_keys + keys))
        else:
            at = bisect_right(keys, k)
            segs, keys = list(tau.segments), list(keys)
            if len(shed_segs) == 2:
                to = bisect_right(keys, l, at)
                segs.insert(to, shed_segs[1])
                keys.insert(to, l)
            segs.insert(at, shed_segs[0])
            keys.insert(at, k)
            out.append(trusted(tuple(segs), tuple(keys)))
    return out


def _term_mul(s, t):
    """Product of two terms of the same grade, or GradeError."""
    if isinstance(s, GLTerm) and isinstance(t, GLTerm):
        return s * t
    if isinstance(s, tuple) and isinstance(t, tuple) and len(s) == len(t) == 2:
        left = _term_mul(s[0], t[0])
        if isinstance(s[1], GLTerm) and isinstance(t[1], GLTerm):
            return (left, s[1] * t[1])
        raise GradeError("no product is defined on the induced leg")
    raise GradeError(f"grade mismatch: cannot multiply {type(s).__name__} by {type(t).__name__}")


class FormalSum:
    """A finite Z>=0-linear combination of terms, stored term -> coefficient.

    Terms are either GLTerm (plain grade) or 2-tuples for tensor grades;
    all coefficients are positive, and a missing term has coefficient 0.
    Sums are frozen: arithmetic returns new objects.  ``terms`` is the
    canonical order, used to render; iteration is unordered.  The
    constructor checks and merges, and fills through ``_trusted``.
    """

    __slots__ = ("_coeffs",)
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, coeffs=None):
        data = {}
        for term, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs or ()):
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError("coefficients must be integers")
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if c:
                data[term] = data.get(term, 0) + c
        return cls._trusted(data)

    @classmethod
    def _trusted(cls, coeffs: dict) -> "FormalSum":
        """A sum that takes ownership of a dict of positive integer
        coefficients; nothing is copied or checked."""
        self = object.__new__(cls)
        _set_coeffs(self, coeffs)
        return self

    @classmethod
    def of(cls, term, coeff: int = 1) -> "FormalSum":
        return cls({term: coeff})

    def coefficient(self, term) -> int:
        return self._coeffs.get(term, 0)

    @property
    def terms(self):
        """Pairs (term, coefficient) in canonical order: by a GL term's key,
        or by the tuple of a tensor term's factor keys."""
        return tuple(sorted(self._coeffs.items(), key=lambda kv: (
            tuple(t.key for t in kv[0]) if isinstance(kv[0], tuple) else kv[0].key)))

    @property
    def total(self) -> int:
        """Number of terms counted with multiplicity."""
        return sum(self._coeffs.values())

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __iter__(self):
        return iter(self._coeffs.items())

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        merged = dict(self._coeffs)
        for term, c in other._coeffs.items():
            merged[term] = merged.get(term, 0) + c
        return FormalSum._trusted(merged)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            if other < 0:
                raise ValueError("scalars must be nonnegative")
            if other == 0:
                return FormalSum()
            return FormalSum._trusted({t: c * other for t, c in self._coeffs.items()})
        if isinstance(other, FormalSum):
            out = {}
            for s, cs in self._coeffs.items():
                for t, ct in other._coeffs.items():
                    prod = _term_mul(s, t)
                    out[prod] = out.get(prod, 0) + cs * ct
            return FormalSum._trusted(out)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __str__(self):
        if not self._coeffs:
            return "0"
        return " + ".join(render_term(t, c) for t, c in self.terms)

    def __repr__(self):
        return f"FormalSum({dict(self.terms)!r})"


def render_term(term, coeff: int = 1) -> str:
    if isinstance(term, tuple):
        body = " (x) ".join(map(str, term))
    else:
        body = str(term)
    if coeff == 1:
        return body
    return f"{coeff} * {body}"


_set_coeffs = FormalSum._coeffs.__set__


def _segment_terms(rho: CuspidalSymbol):
    """The GL unit and ``term(a, b)``, the GL term of the segment [a/2, b/2]
    at rho, or the unit when that is empty, built trusted: nothing is checked."""
    rid, unit = rho.id, GLTerm._trusted((), ())

    def term(a, b):
        if b < a:
            return unit
        s = Segment._trusted(rho, (rid, a, b))
        return GLTerm._trusted((s,), (s.key,))

    return unit, term


def comult(seg: Segment) -> FormalSum:
    """Comultiplication of a segment in the GL Grothendieck group.

    The segment [nu^a rho, nu^b rho] splits into every suffix (x) prefix
    pair: the sum over i from a-1 to b of
    [nu^(i+1) rho, nu^b rho] (x) [nu^a rho, nu^i rho],
    with b-a+2 terms in total, all of coefficient one.  The boundary
    values of i contribute the unit on one side.  The terms, pairwise
    distinct, are built in doubled integers from the segment's key by
    ``_segment_terms``, as ``expand_induced`` builds its own.
    """
    if seg.is_empty:
        raise ValueError("the comultiplication is defined on nonempty segments")
    _, a, b = seg.key  # doubled endpoints; 2i runs over a-2, ..., b
    _, term = _segment_terms(seg.rho)
    return FormalSum._trusted({(term(i + 2, b), term(a, i)): 1 for i in range(a - 2, b + 1, 2)})
