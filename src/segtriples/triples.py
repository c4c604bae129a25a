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

Wherever singles exist they determine the adjacent pairs through the
product rule eps(a_) * eps(a) = eps((a_, a)), so pair values are
derived there and stored only at symbols without singles.  Each symbol
keeps one row of data, and a step rewrites only its own symbol's row.

A subordination step removes an adjacent pair carrying eps = +1 and
rewires the signs: untouched pairs keep their values, the bridge pair
created between the removed pair's outer neighbours takes the product
of the two dropped crossing pairs, and surviving singles keep their
values.  As a word of +1/-1 letters per row (the singles, else the
prefix products of the pair signs from +1) every pair sign is the
product of its two letters and the bridge that of the outer letters:
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
``_peels`` walks the peel over a triple's symbols for every reader,
``_admissible_rows`` builds the rows it admits from ``_admitted_ends``,
peeling none, and no other module builds or reads a row.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from .algebra import EVEN, CuspidalSymbol, _immutable

PLUS = 1
MINUS = -1
_set = object.__setattr__


class InvalidTripleError(ValueError):
    """A triple failed validation; the message lists the violations."""


class NotAdmissibleError(ValueError):
    pass


class GapError(ValueError):
    """An insertion interval meets an existing block."""


class CuspidalSupport:
    """A named cuspidal base object with its Jordan blocks per symbol;
    a symbol given no blocks is dropped, so each support has one form.
    Supports are frozen."""

    __slots__ = ("id", "_jord")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, id: str, jord=None):
        if not isinstance(id, str) or not id:
            raise ValueError("support id must be a nonempty string")
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
        rows.sort(key=lambda kv: kv[0].id)
        CuspidalSupport.id.__set__(self, id)
        CuspidalSupport._jord.__set__(self, tuple(rows))

    def jord_of(self, rho: CuspidalSymbol) -> frozenset:
        for sym, blocks in self._jord:
            if sym == rho:
                return blocks
        return frozenset()

    @property
    def symbols(self):
        return tuple(sym for sym, _ in self._jord)

    def __eq__(self, other):
        if not isinstance(other, CuspidalSupport):
            return NotImplemented
        return self.id == other.id and self._jord == other._jord

    def __hash__(self):
        return hash((self.id, self._jord))

    def __repr__(self):
        body = {sym.id: sorted(blocks) for sym, blocks in self._jord}
        return f"CuspidalSupport({self.id!r}, {body!r})"


def singles_defined(cusp: CuspidalSupport, rho: CuspidalSymbol) -> bool:
    """Whether single-block signs exist at rho over this support."""
    return rho.parity == EVEN or not cusp.jord_of(rho)


class JordanTriple:
    """A triple (blocks, support, signs), one row per symbol.

    ``rows`` maps each symbol with data, in id order, to ``(blocks,
    singles, pairs)``: the sorted blocks, the single signs by block and
    the pair signs by (lower, upper); the library shares rows and never
    mutates them.  Where singles are defined, pair signs are derived by
    the product rule (``pair``, ``pairs``) and not stored; a pair given
    there is kept only for ``validate_triple`` to report.  The
    constructor rejects a symbol that is not a ``CuspidalSymbol``
    (TypeError), non-integer blocks, and signs other than +1 and -1,
    and canonicalizes, but does not validate.  A triple carries a mark
    that it is valid: the library's own builders (``_of_rows``, behind
    every reduction, extension and enumeration result) set it on rows
    they made valid, and so does a ``validate_triple`` that finds
    nothing; ``require_valid`` checks only an unmarked triple.  An
    enumerated triple also keeps its canonical text for ``triple_text``.
    Neither takes part in equality, hashing or ``repr``.  Nothing is
    frozen: a caller must not assign a field or mutate a row map, which
    would void the mark and the kept text.
    """

    __slots__ = ("cusp", "rows", "_valid", "_text")

    def __init__(self, cusp: CuspidalSupport, jord=(), singles=None, pairs=None):
        if not isinstance(cusp, CuspidalSupport):
            raise TypeError("cusp must be a CuspidalSupport")
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
        self.cusp = cusp
        self.rows = {}
        for rho in sorted(given, key=lambda s: s.id):
            blocks, signs, pairs = given[rho]
            blocks = tuple(sorted(blocks))
            derived = _pair_signs(cusp, rho, (blocks, signs, {}))
            self.rows[rho] = (blocks, signs, {k: v for k, v in pairs.items() if derived.get(k) != v})
        self._valid = False
        self._text = None

    @classmethod
    def _of_rows(cls, cusp, rows, text=None):
        """A triple marked valid over rows already canonical and valid,
        shared, not copied; it keeps ``text`` as their canonical text."""
        t = object.__new__(cls)
        t.cusp = cusp
        t.rows = rows
        t._valid = True
        t._text = text
        return t

    # -- accessors ---------------------------------------------------

    def jord_of(self, rho) -> tuple:
        return self.rows.get(rho, _EMPTY)[0]

    @property
    def symbols(self) -> tuple:
        return tuple(rho for rho, row in self.rows.items() if row[0])

    def single(self, rho, a):
        return self.rows.get(rho, _EMPTY)[1].get(a)

    def pair(self, rho, lo, hi):
        return _pair_signs(self.cusp, rho, self.rows.get(rho, _EMPTY)).get((lo, hi))

    @property
    def pairs(self) -> tuple:
        return tuple(((rho, lo, hi), v) for rho, row in self.rows.items()
                     for (lo, hi), v in sorted(_pair_signs(self.cusp, rho, row).items()))

    def adjacent_pairs(self, rho):
        blocks = self.jord_of(rho)
        return tuple(zip(blocks, blocks[1:]))

    @property
    def is_empty(self) -> bool:
        return not self.size

    @property
    def size(self) -> int:
        return sum(len(blocks) for blocks, _, _ in self.rows.values())

    def require_valid(self):
        if not self._valid and (problems := validate_triple(self)):
            raise InvalidTripleError("; ".join(problems))
        return self

    def __eq__(self, other):
        if not isinstance(other, JordanTriple):
            return NotImplemented
        return self.cusp == other.cusp and self.rows == other.rows

    def __hash__(self):
        return hash((self.cusp, tuple(
            (rho, blocks, frozenset(singles.items()), frozenset(pairs.items()))
            for rho, (blocks, singles, pairs) in self.rows.items())))

    def __str__(self):
        return triple_text(self)

    def __repr__(self):
        return f"JordanTriple<{triple_text(self)}>"


make_triple = JordanTriple

_EMPTY = ((), {}, {})


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


def _pair_signs(cusp, rho, row) -> dict:
    """Every pair sign of the row at rho by (lower, upper): the stored
    ones and, where singles are defined, the product rule on each
    adjacent pair whose blocks carry singles.  Read only."""
    blocks, singles, pairs = row
    if not singles_defined(cusp, rho):
        return pairs
    derived = {(lo, hi): singles[lo] * singles[hi]
               for lo, hi in zip(blocks, blocks[1:]) if lo in singles and hi in singles}
    return {**derived, **pairs}


def _replace_row(t: JordanTriple, rho, blocks, singles, pairs) -> JordanTriple:
    """t with the row at rho replaced; the other rows are shared."""
    rows = {**t.rows, rho: (blocks, singles, pairs)}
    if not (blocks or singles or pairs):
        del rows[rho]
    elif rho not in t.rows:
        rows = dict(sorted(rows.items(), key=lambda kv: kv[0].id))
    return JordanTriple._of_rows(t.cusp, rows)


def validate_triple(t: JordanTriple) -> list:
    """All invariant violations, as human-readable strings, grouped by
    kind and each kind in symbol and block order: blocks that are not
    Jordan blocks, signs off or missing from their domain, and stored
    pairs that break the product rule (signs are +1 or -1 when built).
    The check ignores the mark of ``require_valid``, and sets it when
    nothing is found."""
    found = []
    for rho, (blocks, singles, pairs) in t.rows.items():
        derive = singles_defined(t.cusp, rho)
        adjacent = tuple(zip(blocks, blocks[1:]))
        signs = _pair_signs(t.cusp, rho, (blocks, singles, pairs))
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
    found.sort(key=lambda kv: kv[0])
    t._valid = not found
    return [message for _, message in found]


# -- subordination -------------------------------------------------------


class _Record:
    """A frozen slotted record over the fields named in ``__match_args__``: equal
    only within its own class, hashed to agree, shown as a frozen dataclass is."""

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls.__match_args__))

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Reduction(_Record):
    __slots__ = __match_args__ = ("rho", "lower", "upper", "result")

    def __init__(self, rho: CuspidalSymbol, lower: int, upper: int, result: JordanTriple):
        _set(self, "rho", rho)
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "result", result)


def _plus_pair_word(t: JordanTriple, rho, lower: int, upper: int):
    """The blocks and the word at rho of the valid t, where (lower, upper)
    is adjacent and carries +1: its two letters are equal."""
    t.require_valid()
    blocks = t.jord_of(rho)
    if (lower, upper) not in zip(blocks, blocks[1:]):
        raise ValueError(f"({lower},{upper}) is not an adjacent pair at {rho.id}")
    letters = _word(t.rows[rho], singles_defined(t.cusp, rho))
    if letters[lower] != letters[upper]:
        raise ValueError("only pairs carrying +1 can be removed")
    return blocks, letters


def reduce_at(t: JordanTriple, rho, lower: int, upper: int) -> JordanTriple:
    """Remove the adjacent pair (lower, upper) at rho, carrying +1, from the
    valid t: two equal letters leave the word; the bridge is the crossings' product."""
    blocks, letters = _plus_pair_word(t, rho, lower, upper)
    return _keep(t, rho, letters, tuple(a for a in blocks if a != lower and a != upper))


def subordinate_reductions(t: JordanTriple) -> list:
    """Every one-step subordination of t, in canonical witness order:
    symbol by symbol, each adjacent pair of equal letters, lowest first."""
    t.require_valid()
    out = []
    for rho, row in t.rows.items():
        blocks, letters = row[0], _word(row, singles_defined(t.cusp, rho))
        out += [Reduction(rho, lo, hi, _keep(t, rho, letters, blocks[:i] + blocks[i + 2:]))
                for i, (lo, hi) in enumerate(zip(blocks, blocks[1:])) if letters[lo] == letters[hi]]
    return out


# -- alternated type and admissibility -----------------------------------


class AlternatedWitness(_Record):
    """The sorted matchings block -> cuspidal target, one row per symbol."""

    __slots__ = __match_args__ = ("matchings",)

    def __init__(self, matchings: tuple):
        _set(self, "matchings", matchings)

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
    blocks = t.jord_of(rho)
    if blocks and blocks[0] % 2 == 0 and t.single(rho, blocks[0]) == PLUS:
        target.add(0)
    return frozenset(target)


def is_alternated(t: JordanTriple):
    """The witness matchings if t is of alternated type, else None.

    Every symbol that carries blocks in t or in the cuspidal support is
    inspected: a support symbol absent from t still needs its (empty)
    block set to match the cuspidal target, so a nonempty target there
    rules the witness out.
    """
    peels = _peels(t.require_valid())
    if peels is None or any(removals for _, _, removals, _ in peels):
        return None
    return AlternatedWitness(tuple((rho, tuple(zip(kept, sorted(cuspidal_target(t, rho)))))
                                   for rho, _, _, kept in peels))


def _word(row, derive) -> dict:
    """Each block's letter in a valid row: its single sign where
    ``derive`` says singles are defined, else the prefix product of the
    pair signs from +1.  Read only."""
    blocks, letters, pairs = row
    if not derive:
        letters = dict.fromkeys(blocks[:1], PLUS)
        for lo, hi in zip(blocks, blocks[1:]):
            letters[hi] = letters[lo] * pairs[(lo, hi)]
    return letters


def _peel(cusp, rho, row):
    """The canonical peel of a valid row at rho: remove the +1 pair with
    maximal upper endpoint (even rho) or minimal lower endpoint (odd rho)
    until none is left, by stack-reducing the sign word from the top
    (even) or the bottom (odd).  ``(letters, removals, kept)``: each
    block's letter, each removal's blocks with its ``linking_sign`` before
    it (None if unlinked, then the target is missed), the sorted survivors;
    None if they miss the target."""
    derive = singles_defined(cusp, rho)
    blocks, letters = row[0], _word(row, derive)
    even = rho.parity == EVEN
    order = blocks[::-1] if even else blocks
    stack, removals = [], []
    for i, a in enumerate(order):
        if not stack or letters[stack[-1]] != letters[a]:
            stack.append(a)
            continue
        b = stack.pop()
        # rows without singles are odd: the predecessor is on the stack, the successor unread
        near = stack[-1] if stack else order[i + 1] if i + 1 < len(order) else None
        bit = letters[a] if derive else None if near is None else letters[a] * letters[near]
        removals.append((a, b, bit) if even else (b, a, bit))
    kept = tuple(stack[::-1] if even else stack)
    zero = even and kept and letters[kept[0]] == PLUS  # the target gains the block 0
    return (letters, removals, kept) if len(kept) == len(cusp.jord_of(rho)) + bool(zero) else None


def _peels(t: JordanTriple):
    """The canonical peel of the valid t at each symbol carrying blocks
    in t or in its cuspidal support, in id order, as ``(rho, letters,
    removals, kept)``; None if one symbol's peel misses its target.
    Those are the rows' symbols unless the support has one more."""
    cusp, rows = t.cusp, t.rows
    symbols = rows if all(rho in rows for rho, _ in cusp._jord) else sorted(
        {*cusp.symbols, *rows}, key=lambda s: s.id)
    peels = []
    for rho in symbols:
        if (peeled := _peel(cusp, rho, rows.get(rho, _EMPTY))) is None:
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
    """
    t = len(cusp.jord_of(rho))
    ends = (-t, t + 1) if rho.parity == EVEN else (t,)
    return tuple(e for e in ends if abs(e) <= n and (n - e) % 2 == 0)


def _admissible_rows(cusp, rho, blocks):
    """Every row at rho over cusp on exactly these sorted blocks that the peel admits, signed
    on the singles where defined, else on the pairs, as a row map (empty for no blocks):
    one per choice of up steps of a walk to an admitted end; step i leaves parity i."""
    n = len(blocks)
    derive = singles_defined(cusp, rho)
    down = [MINUS if i % 2 == 0 else PLUS for i in range(n)]
    for e in _admitted_ends(cusp, rho, n):
        for ups in itertools.combinations(range(n), (n + e) // 2):
            letters = down.copy()
            for i in ups:
                letters[i] = -letters[i]
            row = ((blocks, dict(zip(blocks, letters)), {}) if derive else (blocks, {}, {
                (lo, hi): v * w for lo, hi, v, w in zip(blocks, blocks[1:], letters, letters[1:])}))
            yield {rho: row} if blocks else {}


def _signed_row(blocks, letters, derive) -> tuple:
    """The row on the sorted blocks signed by their letters: on the singles
    where ``derive`` says they are defined, else on the adjacent pairs."""
    if derive:
        return blocks, {a: letters[a] for a in blocks}, {}
    return blocks, {}, {(lo, hi): letters[lo] * letters[hi] for lo, hi in zip(blocks, blocks[1:])}


def _keep(t: JordanTriple, rho, letters, kept) -> JordanTriple:
    """t with the row at rho cut down to the blocks kept, signed by their letters."""
    return _replace_row(t, rho, *_signed_row(kept, letters, singles_defined(t.cusp, rho)))


def is_admissible(t: JordanTriple):
    """The canonical chain of reductions from t to an alternated triple,
    or None: the canonical peel at each symbol carrying blocks in t or
    in the support, in id order, each result built from its survivors.
    Compare the result against None: an alternated triple is admissible
    with the EMPTY chain, which is falsy.
    """
    peels = _peels(t.require_valid())
    if peels is None:
        return None
    chain, cur = [], t
    for rho, letters, removals, _ in peels:
        kept = t.jord_of(rho)
        for lo, hi, _ in removals:
            kept = tuple(a for a in kept if a != lo and a != hi)
            cur = _keep(cur, rho, letters, kept)
            chain.append(Reduction(rho, lo, hi, cur))
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
    t.require_valid()
    other.require_valid()
    if t.cusp != other.cusp:
        raise ValueError("dominance only compares triples over one support")
    chain, cur = [], t
    for rho, row in t.rows.items():
        blocks, letters, keep = row[0], _word(row, singles_defined(t.cusp, rho)), set(other.jord_of(rho))
        stack = []
        for i, a in enumerate(blocks):
            if stack and letters[stack[-1]] == letters[a] and not {stack[-1], a} & keep:
                lower = stack.pop()
                cur = _keep(cur, rho, letters, tuple(stack) + blocks[i + 1:])
                chain.append(Reduction(rho, lower, a, cur))
            else:
                stack.append(a)
    return tuple(chain) if cur == other else None


# -- extensions ----------------------------------------------------------


def linking_sign(t: JordanTriple, rho, lower: int, upper: int) -> int:
    """The free sign bit of the adjacent pair (lower, upper) at rho,
    carrying +1, in the valid t, read off the row's word: the lower
    block's single sign where singles are defined, else the crossing
    pair toward the predecessor, or toward the successor at the lower
    boundary.  A pair carrying -1 is refused as ``reduce_at`` refuses it."""
    blocks, letters = _plus_pair_word(t, rho, lower, upper)
    if singles_defined(t.cusp, rho):
        return letters[lower]
    i = blocks.index(lower)
    if i:
        return letters[blocks[i - 1]] * letters[lower]
    if i + 2 < len(blocks):
        return letters[upper] * letters[blocks[i + 2]]
    raise NotAdmissibleError("a pair with no sign data cannot be linked")


def _extend(t, rho, lower, upper, sign):
    """Insert (lower, upper) at rho with value +1 and linking bit sign.
    Of the preconditions of ``dominating_extensions`` it checks the gap;
    t is admissible or an alternated base, so its blocks link the pair."""
    blocks, singles, pairs = t.rows.get(rho, _EMPTY)
    if any(lower <= x <= upper for x in blocks):
        raise GapError(f"[{lower},{upper}] meets an existing block at {rho.id}")
    grown = tuple(sorted(blocks + (lower, upper)))
    if singles_defined(t.cusp, rho):
        return _replace_row(t, rho, grown, {**singles, lower: sign, upper: sign}, pairs)
    pred = max((x for x in blocks if x < lower), default=None)
    succ = min((x for x in blocks if x > upper), default=None)
    pairs = {**pairs, (lower, upper): PLUS}
    if pred is not None:
        pairs[(pred, lower)] = sign
    if succ is not None:
        # the bridge across the gap splits into the two crossing pairs
        pairs[(upper, succ)] = sign if pred is None else pairs.pop((pred, succ)) * sign
    return _replace_row(t, rho, grown, singles, pairs)


def dominating_extensions(t: JordanTriple, lower: int, upper: int, rho) -> list:
    """The two admissible triples on jord + {(lower, rho), (upper, rho)}
    with sign +1 on the inserted pair that reduce back onto t.

    The insertion interval must be a gap: no existing block at rho may
    lie in [lower, upper].  The two results differ exactly in the free
    linking bit; they are returned with the +1 bit first.
    """
    if _peels(t.require_valid()) is None:
        raise NotAdmissibleError("extensions are defined over admissible triples")
    if problem := _pair_error(rho, lower, upper):
        raise ValueError(problem)
    return [_extend(t, rho, lower, upper, PLUS),
            _extend(t, rho, lower, upper, MINUS)]


# -- canonical text form --------------------------------------------------


def _sign_char(v: int) -> str:
    return "+" if v == PLUS else "-"


def _row_items(cusp, rows) -> tuple:
    """The jord, single and pair items of a row map over cusp in text order, each led by a space."""
    return ("".join(f" {rho.id}:{a}" for rho, (blocks, _, _) in rows.items() for a in blocks),
            "".join(f" {rho.id}:{a}:{_sign_char(v)}" for rho, (_, signs, _) in rows.items()
                    for a, v in sorted(signs.items())),
            "".join(f" {rho.id}:{lo}:{hi}:{_sign_char(v)}" for rho, row in rows.items()
                    for (lo, hi), v in sorted(_pair_signs(cusp, rho, row).items())))


def _line(cusp, parts) -> str:
    """The canonical line over cusp of the ``_row_items`` of row maps in symbol id order."""
    jord, single, pair = map("".join, zip(("", "", ""), *parts))
    return f"cusp={cusp.id} ; jord={jord} ; single={single} ; pair={pair}"


def triple_text(t: JordanTriple) -> str:
    """Canonical one-line serialization; parse_triple inverts it."""
    return t._text or _line(t.cusp, [_row_items(t.cusp, t.rows)])


def _parse_sign(ch: str) -> int:
    if ch == "+":
        return PLUS
    if ch == "-":
        return MINUS
    raise ValueError(f"not a sign: {ch!r}")


def parse_triple(text: str, cusp: CuspidalSupport, symbols) -> JordanTriple:
    """Rebuild a triple from its canonical text over known symbols."""
    parts = [p.strip() for p in text.strip().split(";")]
    if len(parts) != 4:
        raise ValueError("a triple record has four ; separated sections")
    head, jord_part, single_part, pair_part = parts
    if head != f"cusp={cusp.id}":
        raise ValueError(f"support mismatch: {head!r} vs {cusp.id!r}")

    def sym(name):
        try:
            return symbols[name]
        except KeyError:
            raise ValueError(f"unknown symbol {name!r}") from None

    def items(part, tag):
        if not part.startswith(tag):
            raise ValueError(f"expected section {tag!r}")
        return part[len(tag):].split()

    jord = []
    for item in items(jord_part, "jord="):
        name, a = item.rsplit(":", 1)
        jord.append((sym(name), int(a)))
    singles = {}
    for item in items(single_part, "single="):
        name, a, s = item.split(":")
        singles[(sym(name), int(a))] = _parse_sign(s)
    pairs = {}
    for item in items(pair_part, "pair="):
        name, lo, hi, s = item.split(":")
        pairs[(sym(name), int(lo), int(hi))] = _parse_sign(s)
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
