"""Jordan triples: block sets with signs, and their subordination calculus.

A triple consists of a multiset-free set of Jordan blocks (a, rho), a
fixed cuspidal support, and a sign function eps.  Signs live on two
kinds of arguments:

* adjacent pairs ((a_, rho), (a, rho)), where a_ is the predecessor of
  a among the blocks at rho; eps is defined on all of these and nothing
  else;
* single blocks (a, rho), defined exactly when a is even, or when a is
  odd and the cuspidal support has no Jordan blocks at rho (the case in
  which rho induced to the base cuspidal reduces).

Each symbol keeps one row: its sorted blocks and one +1/-1 letter per
block, the single signs where singles exist, else the prefix products
of the pair signs from +1.  Each pair sign is the product of its two
letters (where singles exist, the product rule eps(a_) * eps(a) =
eps((a_, a))), so none is stored; a step rewrites only its own row.

A subordination step removes an adjacent pair carrying eps = +1 and
rewires the signs: untouched pairs keep their values, the bridge pair
created between the removed pair's outer neighbours takes the product
of the two dropped crossing pairs, and surviving singles keep their
values.  On the words the bridge is the product of the outer letters:
a step deletes two equal adjacent letters, as in Z/2 * Z/2.  Lemma:
in whatever order, such deletions end in one reduced word (each
shortens the word, and two that overlap, in a run aaa, leave the same
word).  A triple is of alternated type when every pair carries -1 and,
for every symbol carrying blocks here or in the cuspidal support, the
block set matches the cuspidal target set in size (the increasing
bijection is then the sorted matching).  Admissible means: some chain
of subordination steps ends in an alternated triple.  As steps at one
symbol leave the other rows alone, the lemma gives: the canonical peel,
the stack reduction of each row's word, decides admissibility; and t
dominates u exactly when u is t cut down to some of its blocks and
each run of blocks of t that u lacks reduces to the empty word.
``_peels`` walks the peel over a triple's symbols for every reader.
The walk end decides admission: a symbol's peel refuses by one sum a
row whose walk misses the ends of ``_admitted_ends``, and runs its
stack only on admitted rows, keeping the survivors as a signed row, or
the row itself when it removes nothing.  ``_admitted`` builds the words
each size admits from the ends, peeling none, in text order.  ``_grown``
is the one rule that grows a word: a chain's steps, or an extension's.

The records ``Reduction`` and ``AlternatedWitness`` (and
``classify.ChainStep``) are named tuples of their fields (``_Record``).
Every text item, a chain's steps included, is written by ``_item`` (a
row's through ``_row_items``, an enumerated block set's once by
``_written``), read back by ``_text_items`` and joined by ``_line``;
only a triple built from invalid input keeps its text.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from operator import getitem, mul

from .algebra import EVEN, CuspidalSymbol, _checked_id, _immutable
from .halfint import _parse_int

PLUS = 1
MINUS = -1


class InvalidTripleError(ValueError):
    """A triple failed validation; the message lists the violations."""


class NotAdmissibleError(ValueError):
    pass


class GapError(ValueError):
    """An insertion interval meets an existing block."""


class CuspidalSupport:
    """A named cuspidal base object with its Jordan blocks per symbol, one
    dict in id order (``_blocks``); a symbol given no blocks is dropped, so
    each support has one form.  Supports are frozen, hashed once when built."""

    __slots__ = ("id", "_blocks", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, id: str, jord=None):
        _checked_id(id, "support")
        rows = []
        for rho, blocks in (jord or {}).items():
            if not isinstance(rho, CuspidalSymbol):
                raise TypeError("support keys must be CuspidalSymbol objects")
            blocks = tuple(blocks)
            for a in blocks:
                if problem := rho.block_error(a):
                    raise ValueError(f"cuspidal {problem}")
            if blocks:
                rows.append((rho, frozenset(blocks)))
        rows = dict(sorted(rows, key=lambda kv: kv[0].id))
        for slot, value in zip(self.__slots__, (id, rows, hash((id, tuple(rows.items()))))):
            object.__setattr__(self, slot, value)

    def jord_of(self, rho: CuspidalSymbol) -> frozenset:
        return self._blocks.get(rho, frozenset())

    @property
    def symbols(self):
        return tuple(self._blocks)

    def __eq__(self, other):
        if not isinstance(other, CuspidalSupport):
            return NotImplemented
        return self.id == other.id and self._blocks == other._blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = {sym.id: sorted(blocks) for sym, blocks in self._blocks.items()}
        return f"CuspidalSupport({self.id!r}, {body!r})"


def singles_defined(cusp: CuspidalSupport, rho: CuspidalSymbol) -> bool:
    """Whether single-block signs exist at rho over this support."""
    return rho.parity == EVEN or rho not in cusp._blocks


class JordanTriple:
    """A triple (blocks, support, signs), frozen.

    ``rows`` maps each symbol with blocks, in id order, to ``(blocks,
    letters)``: the sorted blocks and each one's letter, as in the module
    docstring; no pair sign is stored (``pair``, ``pairs``).  The
    constructor rejects a symbol that is not a ``CuspidalSymbol``
    (TypeError), non-integer blocks and signs other than +1 and -1, and
    keeps what ``validate_triple`` reports on the rest: valid input gets
    rows, so a triple with rows is valid, and invalid input keeps only
    its violations and its text, which only ``validate_triple``,
    ``require_valid``, ``str``, ``repr``, equality and hashing read;
    other readers raise ``InvalidTripleError``.  ``_of_rows`` shares
    rows the library made valid, and fills only ``cusp`` and ``rows``:
    ``triple_text`` writes a valid triple's text afresh.  Equality and
    hash read one key, and the hash is computed on first use."""

    __slots__ = ("cusp", "rows", "_text", "_problems", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, cusp: CuspidalSupport, jord=(), singles=None, pairs=None):
        _checked(cusp, CuspidalSupport, "cusp")
        given = {}
        for rho, a in jord:
            given.setdefault(rho, (set(), {}, {}))[0].add(_integer(a, "block"))
        for (rho, a), v in (singles or {}).items():
            given.setdefault(rho, (set(), {}, {}))[1][_integer(a, "block")] = _sign(v)
        for (rho, lo, hi), v in (pairs or {}).items():
            key = (_integer(lo, "block"), _integer(hi, "block"))
            given.setdefault(rho, (set(), {}, {}))[2][key] = _sign(v)
        if any(not isinstance(rho, CuspidalSymbol) for rho in given):
            raise TypeError("triple keys must be CuspidalSymbol objects")
        found, rows, parts = [], {}, []
        for rho in sorted(given, key=lambda s: s.id):
            blocks, singles, pairs = given[rho]
            blocks = tuple(sorted(blocks))
            derive = singles_defined(cusp, rho)
            adjacent = tuple(zip(blocks, blocks[1:]))
            signs = {(lo, hi): singles[lo] * singles[hi] for lo, hi in adjacent
                     if derive and lo in singles and hi in singles}
            signs.update(pairs)
            found += [(0, problem) for a in blocks if (problem := rho.block_error(a))]
            found += [(1, f"single sign on {rho.id}:{a} is not in the domain")
                      for a in sorted(singles) if not derive or a not in blocks]
            found += [(2, f"missing single sign on {rho.id}:{a}")
                      for a in blocks if derive and a not in singles]
            found += [(3, f"pair sign on {rho.id}:{lo}-{hi} is not adjacent")
                      for lo, hi in sorted(pairs) if (lo, hi) not in adjacent]
            found += [(4, f"missing pair sign on {rho.id}:{lo}-{hi}")
                      for lo, hi in adjacent if (lo, hi) not in signs]
            found += [(5, f"pair sign on {rho.id}:{lo}-{hi} breaks the product rule")
                      for (lo, hi), v in sorted(pairs.items()) if (lo, hi) in adjacent
                      and lo in singles and hi in singles and v != singles[lo] * singles[hi]]
            parts.append((rho, blocks, singles, signs))
            # the row is kept only if no symbol has a violation
            rows[rho] = blocks, tuple(singles.get(a) for a in blocks) if derive else tuple(
                itertools.accumulate((signs.get(k, PLUS) for k in adjacent), mul, initial=PLUS))
        found.sort(key=lambda kv: kv[0])
        _set_cusp(self, cusp)
        _set_rows(self, None if found else rows)
        if found:  # invalid input keeps its text: its items as given, in order
            JordanTriple._text.__set__(self, _line(cusp, [
                _row_items(rho, blocks, sorted(singles.items()), sorted(signs.items()))
                for rho, blocks, singles, signs in parts]))
        JordanTriple._problems.__set__(self, tuple(message for _, message in found))

    @classmethod
    def _of_rows(cls, cusp, rows):
        """A triple over rows already canonical and valid, shared, not copied."""
        t = object.__new__(cls)
        _set_cusp(t, cusp)
        _set_rows(t, rows)
        return t

    # -- accessors ---------------------------------------------------

    def _row(self, rho) -> tuple:
        return self.require_valid().rows.get(rho, _EMPTY)

    def jord_of(self, rho) -> tuple:
        return self._row(rho)[0]

    @property
    def symbols(self) -> tuple:
        return tuple(self.require_valid().rows)

    def single(self, rho, a):
        blocks, letters = self._row(rho)
        try:
            return letters[blocks.index(a)] if singles_defined(self.cusp, rho) else None
        except ValueError:
            return None

    def pair(self, rho, lo, hi):
        blocks, letters = self._row(rho)
        try:
            i = blocks.index(lo)
        except ValueError:
            return None
        return letters[i] * letters[i + 1] if blocks[i + 1:i + 2] == (hi,) else None

    @property
    def pairs(self) -> tuple:
        return tuple(((rho, lo, hi), v) for rho, row in self.require_valid().rows.items()
                     for (lo, hi), v in _pair_items(row))

    def adjacent_pairs(self, rho):
        blocks = self.jord_of(rho)
        return tuple(zip(blocks, blocks[1:]))

    @property
    def is_empty(self) -> bool:
        return not self.size

    @property
    def size(self) -> int:
        return sum(len(blocks) for blocks, _ in self.require_valid().rows.values())

    def require_valid(self):
        if self.rows is None:
            raise InvalidTripleError("; ".join(self._problems))
        return self

    @property
    def _key(self):
        """The rows in id order, or the text of a triple built from invalid input."""
        return self._text if self.rows is None else tuple(self.rows.items())

    def __eq__(self, other):
        if not isinstance(other, JordanTriple):
            return NotImplemented
        return self.cusp == other.cusp and self._key == other._key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            JordanTriple._hash.__set__(self, hash((self.cusp, self._key)))
            return self._hash

    def __str__(self):
        return triple_text(self)

    def __repr__(self):
        return f"JordanTriple<{triple_text(self)}>"


make_triple = JordanTriple
_set_cusp = JordanTriple.cusp.__set__
_set_rows = JordanTriple.rows.__set__

_EMPTY = ((), ())


def _checked(value, cls, name: str):
    """value, or TypeError, before any of its attributes is read, when it is no cls."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}")
    return value


def _integer(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _sign(v) -> int:
    """v when it is a sign, +1 or -1; else ValueError."""
    if _integer(v, "sign") not in (PLUS, MINUS):
        raise ValueError(f"sign {v} is not +1/-1")
    return v


def _pair_error(rho, lower, upper) -> str | None:
    """Why (lower, upper) is not a pair of Jordan blocks at rho, lower < upper, or None."""
    if problem := rho.block_error(lower) or rho.block_error(upper):
        return problem
    return None if lower < upper else f"need lower < upper, got {lower} and {upper}"


def _pair_items(row) -> list:
    """Each adjacent pair of a row, lowest first, with its sign: the product of its two letters."""
    blocks, letters = row
    return [((lo, hi), v * w) for lo, hi, v, w in zip(blocks, blocks[1:], letters, letters[1:])]


def _signed_row(blocks, letters, derive) -> tuple:
    """The row on the sorted blocks and their letters, negated to start at
    +1 where ``derive`` says singles are undefined: a word there is one up to sign."""
    if not derive and letters and letters[0] == MINUS:
        letters = tuple(-v for v in letters)
    return blocks, letters


def _replace_row(t: JordanTriple, rho, blocks, letters, derive) -> JordanTriple:
    """t with its row at rho replaced by the blocks and their letters, signed by
    ``_signed_row`` (``derive``), or dropped for no blocks; the other rows are shared."""
    rows = {**t.rows, rho: _signed_row(blocks, letters, derive)}
    if not blocks:
        del rows[rho]
    return JordanTriple._of_rows(t.cusp, rows)


def validate_triple(t: JordanTriple) -> list:
    """All invariant violations, as human-readable strings, grouped by
    kind and each kind in symbol and block order: blocks that are not
    Jordan blocks, signs off or missing from their domain, and given
    pairs that break the product rule (signs are +1 or -1 when built).
    A triple built from input keeps what its constructor found.  The
    rows of one the library built are checked in full: its text, read
    back as input, must build the same rows."""
    if (found := getattr(_checked(t, JordanTriple, "t"), "_problems", None)) is not None:
        return list(found)
    again = parse_triple(triple_text(t), t.cusp, {rho.id: rho for rho in t.rows})
    return validate_triple(again) if again.rows is None or again._key == t._key else [
        "the rows are not in canonical form"]


# -- subordination -------------------------------------------------------


class _Record:
    """The first base of a record whose second is the ``namedtuple`` of its
    fields, so one ``tuple.__new__`` call makes it, its fields are C-level
    item getters, and it is frozen; ``_new(cls, fields)`` makes one with no
    Python frame.  A record is equal only within its own class, never to a
    plain tuple or a subclass, and hashed as its fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


_new = tuple.__new__


class Reduction(_Record, namedtuple("Reduction", "rho lower upper result")):
    __slots__ = ()


def _plus_pair(t: JordanTriple, rho, lower: int, upper: int):
    """The row at rho of the valid t and the index of lower, where
    (lower, upper) is adjacent and carries +1: its two letters are equal."""
    _checked(rho, CuspidalSymbol, "rho")
    if (sign := _checked(t, JordanTriple, "t").pair(rho, lower, upper)) is None:
        raise ValueError(f"({lower},{upper}) is not an adjacent pair at {rho.id}")
    if sign != PLUS:
        raise ValueError("only pairs carrying +1 can be removed")
    blocks, letters = t._row(rho)
    return blocks, letters, blocks.index(lower)


def reduce_at(t: JordanTriple, rho, lower: int, upper: int) -> JordanTriple:
    """Remove the adjacent pair (lower, upper) at rho, carrying +1, from the
    valid t: two equal letters leave the word; the bridge is the crossings' product."""
    _plus_pair(t, rho, lower, upper)
    return _reduce_in_turn([], t, rho, [(lower, upper)])


def _reduce_in_turn(chain: list, t: JordanTriple, rho, pairs) -> JordanTriple:
    """The last triple of removing the pairs ``(lower, upper, ...)`` at rho from t in turn, each
    adjacent with equal letters when its turn comes; each step is appended to chain."""
    blocks, letters = t.rows.get(rho, _EMPTY)
    derive = singles_defined(t.cusp, rho)
    for lower, upper, *_ in pairs:
        i = blocks.index(lower)
        blocks, letters = blocks[:i] + blocks[i + 2:], letters[:i] + letters[i + 2:]
        t = _replace_row(t, rho, blocks, letters, derive)
        chain.append(_new(Reduction, (rho, lower, upper, t)))
    return t


def subordinate_reductions(t: JordanTriple) -> list:
    """Every one-step subordination of t, in canonical witness order:
    symbol by symbol, each adjacent pair of equal letters, lowest first."""
    out = []
    for rho, (blocks, letters) in _checked(t, JordanTriple, "t").require_valid().rows.items():
        derive = singles_defined(t.cusp, rho)
        out += [_new(Reduction, (rho, blocks[i], blocks[i + 1], _replace_row(
                    t, rho, blocks[:i] + blocks[i + 2:], letters[:i] + letters[i + 2:], derive)))
                for i in range(len(blocks) - 1) if letters[i] == letters[i + 1]]
    return out


# -- alternated type and admissibility -----------------------------------


class AlternatedWitness(_Record, namedtuple("AlternatedWitness", "matchings")):
    """The sorted matchings block -> cuspidal target, one row per symbol."""

    __slots__ = ()

    def matching_for(self, rho):
        for sym, rows in self.matchings:
            if sym == rho:
                return rows
        return ()


def cuspidal_target(t: JordanTriple, rho) -> frozenset:
    """The target set the blocks at rho must match in an alternated
    triple: the cuspidal blocks, joined with 0 when the minimal block
    here is even and carries single sign +1."""
    target = set(t.cusp.jord_of(rho))
    blocks, letters = t._row(rho)
    if blocks and blocks[0] % 2 == 0 and letters[0] == PLUS:
        target.add(0)
    return frozenset(target)


def is_alternated(t: JordanTriple):
    """The witness matchings if t is of alternated type, else None.
    Every symbol carrying blocks in t or in the support is inspected: one
    absent from t has no blocks to match its nonempty cuspidal target."""
    peels = _peels(_checked(t, JordanTriple, "t").require_valid())
    if peels is None or any(removals for _, removals, _ in peels):
        return None
    return AlternatedWitness(tuple((rho, tuple(zip(kept[0], sorted(cuspidal_target(t, rho)))))
                                   for rho, _, kept in peels))


def _peel(cusp, rho, row):
    """The canonical peel of a valid row at rho: remove the +1 pair with
    maximal upper endpoint (even rho) or minimal lower endpoint (odd rho)
    until none is left, by stack-reducing the word from the top (even)
    or the bottom (odd), if its walk ends at an end of ``_admitted_ends``,
    else None before any stack work.  ``(removals, kept)``: each removal's
    blocks with its ``linking_sign`` before it, and the survivors signed as
    ``_signed_row`` signs a row, or the row itself if none was removed.  The
    support is looked up once; the stack holds blocks: kept letters alternate."""
    target = len(cusp._blocks.get(rho, ()))
    even = rho.parity == EVEN
    blocks, letters = row
    end = sum(letters[::2]) - sum(letters[1::2])  # the walk's end, as in ``_admitted_ends``
    if (end != -target and end != target + 1) if even else abs(end) != target:
        return None
    derive = even or not target  # singles_defined, from the one lookup
    n = len(blocks)
    # kept letters alternate, as equal neighbours cancel: top is the last, 0 on an empty stack
    kept, removals, top = [], [], 0
    for i in range(n - 1, -1, -1) if even else range(n):
        v = letters[i]
        if v != top:
            kept.append(blocks[i])
            top = v
            continue
        b = kept.pop()
        top = -v if kept else 0
        # rows without singles are odd: the predecessor is on the stack, or else the successor is
        # unread, as an admitted row keeps a block: the last letter never empties the stack
        bit = v if derive else v * top if kept else v * letters[i + 1]
        removals.append((blocks[i], b, bit) if even else (b, blocks[i], bit))
    if even:
        kept.reverse()
    if removals:
        # alternating from the lowest block's letter: top at an even symbol; an odd one keeps
        # blocks only where singles are undefined, and its word starts at +1 (``_signed_row``)
        low = top if even else PLUS
        row = tuple(kept), (low, -low) * (len(kept) // 2) + (low,) * (len(kept) % 2)
    return removals, row


def _peels(t: JordanTriple):
    """The canonical peel of the valid t at each symbol carrying blocks in t or in its
    cuspidal support, in id order, as ``(rho, removals, kept)``; None if one symbol's
    peel refuses its row.  Those are the rows' symbols unless the support has one more."""
    cusp, rows = t.cusp, t.rows
    items = rows.items() if cusp._blocks.keys() <= rows.keys() else [
        (rho, rows.get(rho, _EMPTY)) for rho in sorted({*cusp._blocks, *rows}, key=lambda s: s.id)]
    peels = []
    for rho, row in items:
        if (peeled := _peel(cusp, rho, row)) is None:
            return None
        peels.append((rho, *peeled))
    return peels


def _admitted_ends(cusp, rho, n: int) -> tuple:
    """Where the walks of the words the peel admits on n blocks at rho end:
    read a word, lowest block first, as a walk from 0 on the line, the
    Cayley graph of Z/2 * Z/2: a +1 letter steps up from an even point
    and down from an odd one, a -1 letter the reverse.  Equal adjacent
    letters are a step and its undo, so the stack reduction is the
    shortest path to the end e: |e| alternating letters, the lowest +1
    iff e > 0; C(n, (n + e)/2) words end at e.  With t cuspidal blocks
    at rho, an odd symbol keeps t: e = t (t = 0 with singles; a row
    without is a word up to sign, and negation negates the walk); an
    even one keeps t (e = -t), or t + 1 if the lowest is +1 (e = t + 1).
    So the end alone decides admission: ``_peel`` tests it before its stack.
    """
    t = len(cusp.jord_of(rho))
    ends = (-t, t + 1) if rho.parity == EVEN else (t,)
    return tuple(e for e in ends if abs(e) <= n and (n - e) % 2 == 0)


def _admitted(cusp, rho, groups):
    """Each set of ``classify._window``'s size groups at rho as ``(jord, blocks, words)``: its jord
    items and the words the peel admits on its size, shared by the size's sets (none read if there is
    none): a word per choice of up steps of a walk to an admitted end (step i leaves parity i), signed
    by ``_signed_row``, sorted once, + first, by letters where singles exist, else by pair signs."""
    derive = singles_defined(cusp, rho)
    for n, _, sets in groups:
        down = [MINUS if i % 2 == 0 else PLUS for i in range(n)]
        words = []
        for e in _admitted_ends(cusp, rho, n):
            for ups in itertools.combinations(range(n), (n + e) // 2):
                letters = down.copy()
                for i in ups:
                    letters[i] = -letters[i]
                words.append(_signed_row((), tuple(letters), derive)[1])
        words.sort(key=None if derive else lambda w: [*map(mul, w, w[1:])], reverse=True)
        yield from ((_row_items(rho, blocks, (), ())[0], blocks, words) for blocks in (sets if words else ()))


def _written(cusp, rho, jord, blocks, words):
    """Each word's items ``(jord, single, pair)`` on the blocks at rho, lazily; ``_item`` writes each once."""
    singles = [{v: _item(rho, (a,), v) for v in (PLUS, MINUS)} for a in blocks if singles_defined(cusp, rho)]
    pairs = [{v: _item(rho, pair, v) for v in (PLUS, MINUS)} for pair in zip(blocks, blocks[1:])]
    return ((jord, "".join(map(getitem, singles, word)), "".join(map(getitem, pairs, map(mul, word, word[1:]))))
            for word in words)


def is_admissible(t: JordanTriple):
    """The canonical chain of reductions from t to an alternated triple,
    or None: the canonical peel at each symbol carrying blocks in t or
    in the support, in id order, each result built from its survivors.
    Compare the result against None: an alternated triple is admissible
    with the EMPTY chain, which is falsy.
    """
    peels = _peels(_checked(t, JordanTriple, "t").require_valid())
    if peels is None:
        return None
    chain, cur = [], t
    for rho, removals, _ in peels:
        cur = _reduce_in_turn(chain, cur, rho, removals)
    return tuple(chain)


def dominates(t: JordanTriple, other: JordanTriple):
    """A chain of reductions carrying t onto other, or None: at each
    triple the first reduction, in canonical witness order, whose two
    blocks other lacks at its symbol.  It is the chain a depth-first
    search would meet first: a step that removes a block other keeps
    never reaches other, and a step inside a run of blocks other lacks
    leaves the run's reduced word alone (the lemma above), so other
    stays reachable; when no such step is left, t does not dominate it.

    Each symbol's steps are read off its word in one stack pass from
    the lowest block: a step only joins the blocks around it, so the
    next first step is the top of the stack against the next block, and
    only the triples on the chain are built."""
    if not (isinstance(t, JordanTriple) and isinstance(other, JordanTriple)):
        raise TypeError("dominance compares JordanTriple objects")
    t.require_valid()
    other.require_valid()
    if t.cusp != other.cusp:
        raise ValueError("dominance only compares triples over one support")
    chain, cur = [], t
    for rho, row in t.rows.items():
        keep, stack, removals = set(other.jord_of(rho)), [], []
        for a, v in zip(*row):
            if stack and stack[-1][1] == v and stack[-1][0] not in keep and a not in keep:
                removals.append((stack.pop()[0], a))
            else:
                stack.append((a, v))
        cur = _reduce_in_turn(chain, cur, rho, removals)
    return tuple(chain) if cur == other else None


# -- extensions ----------------------------------------------------------


def linking_sign(t: JordanTriple, rho, lower: int, upper: int) -> int:
    """The free sign bit of the adjacent pair (lower, upper) at rho,
    carrying +1, in the valid t, read off the row's word: the lower
    block's single sign where singles are defined, else the crossing
    pair toward the predecessor, or toward the successor at the lower
    boundary.  A pair carrying -1 is refused as ``reduce_at`` refuses it."""
    blocks, letters, i = _plus_pair(t, rho, lower, upper)
    if singles_defined(t.cusp, rho):
        return letters[i]
    if i:
        return letters[i - 1] * letters[i]
    if i + 2 < len(blocks):
        return letters[i + 1] * letters[i + 2]
    raise NotAdmissibleError("a pair with no sign data cannot be linked")


def _grown(t: JordanTriple, steps) -> JordanTriple:
    """The valid t with each step ``(rho, lower, upper, sign)`` inserted in
    turn: the pair (lower, upper) at rho, carrying +1 with linking bit
    sign.  Both new letters are sign where singles are defined, else sign
    times the predecessor's letter, or the successor's at the lower
    boundary, or +1 on an empty row; no other letter changes.  Raises
    GapError at the first step whose interval meets a block already at
    its symbol.  A touched symbol's blocks and letters are lists, with
    singles_defined from one lookup; only the result is built, signed by
    ``_signed_row`` and re-ordered by id only when it gains a symbol; t for no steps."""
    cusp, rows = t.cusp, t.rows
    walks = {}
    for rho, lower, upper, sign in steps:
        if (walk := walks.get(rho)) is None:
            blocks, letters = rows.get(rho, _EMPTY)
            walk = walks[rho] = list(blocks), list(letters), rho.parity == EVEN or rho not in cusp._blocks
        blocks, letters, derive = walk
        i = bisect_left(blocks, lower)
        if i < len(blocks) and blocks[i] <= upper:
            raise GapError(f"[{lower},{upper}] meets an existing block at {rho.id}")
        v = sign if derive else sign * letters[max(i - 1, 0)] if letters else PLUS
        blocks[i:i] = lower, upper
        letters[i:i] = v, v
    if not walks:
        return t
    grown = rows.copy()
    for rho, (blocks, letters, derive) in walks.items():
        grown[rho] = _signed_row(tuple(blocks), tuple(letters), derive)
    if len(grown) > len(rows):
        grown = dict(sorted(grown.items(), key=lambda kv: kv[0].id))
    return JordanTriple._of_rows(cusp, grown)


def dominating_extensions(t: JordanTriple, lower: int, upper: int, rho) -> list:
    """The two admissible triples on jord + {(lower, rho), (upper, rho)}
    with sign +1 on the inserted pair that reduce back onto t: ``_grown``
    by the one step, once per linking bit, the +1 bit first.

    The insertion interval must be a gap: no existing block at rho may
    lie in [lower, upper] (GapError).
    """
    _checked(rho, CuspidalSymbol, "rho")
    if _peels(_checked(t, JordanTriple, "t").require_valid()) is None:
        raise NotAdmissibleError("extensions are defined over admissible triples")
    if problem := _pair_error(rho, lower, upper):
        raise ValueError(problem)
    return [_grown(t, ((rho, lower, upper, sign),)) for sign in (PLUS, MINUS)]


# -- canonical text form --------------------------------------------------


def _item(rho, fields, *sign) -> str:
    """One text item, led by a space, as ``_text_items`` reads it back: ``rho:a`` (jord),
    ``rho:a:sign`` (single) or ``rho:lo:hi:sign`` (pair or chain step), the sign + or -,
    or its repr where it is no sign, which ``_parse_sign`` refuses."""
    text = f" {rho.id}:" + ":".join([f"{a}" for a in fields])
    for v in sign:
        try:
            text += ":+" if _sign(v) == PLUS else ":-"
        except ValueError:
            text += f":{v!r}"
    return text


def _row_items(rho, blocks, singles, pairs) -> tuple:
    """The jord, single ``(a, sign)`` and pair ``((lo, hi), sign)`` items at rho, in the order given."""
    return ("".join([_item(rho, (a,)) for a in blocks]),
            "".join([_item(rho, (a,), v) for a, v in singles]),
            "".join([_item(rho, pair, v) for pair, v in pairs]))


def _line(cusp, parts) -> str:
    """The canonical line over cusp of its symbols' jord, single and pair items, in id order."""
    jord, single, pair = map("".join, zip(("", "", ""), *parts))
    return f"cusp={cusp.id} ; jord={jord} ; single={single} ; pair={pair}"


def triple_text(t: JordanTriple) -> str:
    """Canonical one-line text, of the rows' own items or kept from invalid input; parse_triple inverts it."""
    cusp = _checked(t, JordanTriple, "t").cusp
    if t.rows is None:
        return t._text
    return _line(cusp, [_row_items(rho, row[0], zip(*row) if singles_defined(cusp, rho) else (),
                                   _pair_items(row)) for rho, row in t.rows.items()])


def _parse_sign(ch: str) -> int:
    if ch == "+":
        return PLUS
    if ch == "-":
        return MINUS
    raise ValueError(f"not a sign: {ch!r}")


def _text_items(part: str, section: str, shape: str, symbols) -> list:
    """The fields of each item of a text section ``section=...``, named by
    its shape, as ``rho:lo:hi:sign``: rho is looked up in symbols, sign
    read as + or -, and every other field as an integer in its one spelling
    (``halfint._parse_int``).  A missing or malformed field raises
    ValueError quoting the item and naming its section."""
    tag, names = f"{section}=", shape.split(":")
    if not part.startswith(tag):
        raise ValueError(f"expected section {tag!r}")
    out = []
    for item in part[len(tag):].split():
        fields = item.rsplit(":", len(names) - 1)
        try:
            if len(fields) < len(names):
                raise ValueError(f"expected {shape}")
            read = []
            for name, field in zip(names, fields):
                if name == "rho":
                    if field not in symbols:
                        raise ValueError(f"unknown symbol {field!r}")
                    read.append(symbols[field])
                elif name == "sign":
                    read.append(_parse_sign(field))
                else:
                    read.append(_parse_int(field, name))
        except ValueError as exc:
            raise ValueError(f"{section} item {item!r}: {exc}") from None
        out.append(read)
    return out


def parse_triple(text: str, cusp: CuspidalSupport, symbols) -> JordanTriple:
    """Rebuild a triple from its canonical text over known symbols; each
    section is read by ``_text_items``."""
    parts = [p.strip() for p in text.strip().split(";")]
    if len(parts) != 4:
        raise ValueError("a triple record has four ; separated sections")
    head, jord_part, single_part, pair_part = parts
    if head != f"cusp={cusp.id}":
        raise ValueError(f"support mismatch: {head!r} vs {cusp.id!r}")
    jord = [tuple(fields) for fields in _text_items(jord_part, "jord", "rho:a", symbols)]
    singles = {(rho, a): v for rho, a, v in _text_items(single_part, "single", "rho:a:sign", symbols)}
    pairs = {(rho, lo, hi): v for rho, lo, hi, v in _text_items(pair_part, "pair", "rho:lo:hi:sign", symbols)}
    return JordanTriple(cusp, jord, singles, pairs)


def _parse_triple_record(text: str, supports, symbols) -> JordanTriple:
    """Parse a triple record over the support its cusp= head names."""
    head = text.split(";", 1)[0].strip()
    if not head.startswith("cusp="):
        raise ValueError("a triple record starts with cusp=NAME")
    name = head[len("cusp="):]
    if name not in supports:
        raise ValueError(f"unknown support {name!r}")
    return parse_triple(text, supports[name], symbols)
