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
product rule eps(a_) * eps(a) = eps((a_, a)); the pair values are kept
stored anyway, and validation enforces the compatibility.

A subordination step removes an adjacent pair carrying eps = +1 and
rewires the signs: untouched pairs keep their values, the bridge pair
created between the removed pair's outer neighbours takes the product
of the two dropped crossing pairs, and surviving singles keep their
values.  A triple is of alternated type when every pair carries -1 and,
for every symbol carrying blocks here or in the cuspidal support, the
block set matches the cuspidal target set in size (the increasing
bijection is then the sorted matching).  Admissible means: some chain
of subordination steps ends in an alternated triple.  Subordination at
one symbol leaves the other symbols' data alone and alternation is a
condition per symbol, so the canonical peel, run symbol by symbol,
decides admissibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import EVEN, CuspidalSymbol

PLUS = 1
MINUS = -1


class InvalidTripleError(ValueError):
    """A triple failed validation; the message lists the violations."""


class NotAdmissibleError(ValueError):
    pass


class GapError(ValueError):
    """An insertion interval meets an existing block."""


class CuspidalSupport:
    """A named cuspidal base object with its Jordan blocks per symbol."""

    __slots__ = ("id", "_jord")

    def __init__(self, id: str, jord=None):
        if not isinstance(id, str) or not id:
            raise ValueError("support id must be a nonempty string")
        rows = []
        for rho, blocks in (jord or {}).items():
            if not isinstance(rho, CuspidalSymbol):
                raise TypeError("support keys must be CuspidalSymbol objects")
            blocks = frozenset(blocks)
            for a in blocks:
                if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                    raise ValueError("cuspidal Jordan blocks are positive integers")
                if not rho.matches_parity(a):
                    raise ValueError(f"cuspidal block {a} has the wrong parity for {rho.id}")
            rows.append((rho, blocks))
        rows.sort(key=lambda kv: kv[0].id)
        self.id = id
        self._jord = tuple(rows)

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
    if rho.parity == "even":
        return True
    return not cusp.jord_of(rho)


class JordanTriple:
    """An immutable triple (blocks, support, signs).

    The constructor canonicalizes but does not validate; use
    ``validate_triple`` for diagnostics and ``require_valid`` as a
    gate.  ``make_triple`` fills in pair signs from singles when they
    are determined by the product rule.
    """

    __slots__ = ("cusp", "jord", "singles", "pairs")

    def __init__(self, cusp: CuspidalSupport, jord=(), singles=None, pairs=None):
        if not isinstance(cusp, CuspidalSupport):
            raise TypeError("cusp must be a CuspidalSupport")
        entries = {(rho, int(a)) for rho, a in jord}
        self.cusp = cusp
        self.jord = tuple(sorted(entries, key=lambda e: (e[0].id, e[1])))
        singles = dict(singles or {})
        pairs = dict(pairs or {})
        self.singles = tuple(sorted(
            (((rho, int(a)), int(v)) for (rho, a), v in singles.items()),
            key=lambda kv: (kv[0][0].id, kv[0][1])))
        self.pairs = tuple(sorted(
            (((rho, int(lo), int(hi)), int(v)) for (rho, lo, hi), v in pairs.items()),
            key=lambda kv: (kv[0][0].id, kv[0][1], kv[0][2])))

    # -- accessors ---------------------------------------------------

    def jord_of(self, rho) -> tuple:
        return tuple(a for sym, a in self.jord if sym == rho)

    @property
    def symbols(self) -> tuple:
        seen = []
        for sym, _ in self.jord:
            if sym not in seen:
                seen.append(sym)
        return tuple(seen)

    def single(self, rho, a):
        for key, v in self.singles:
            if key == (rho, a):
                return v
        return None

    def pair(self, rho, lo, hi):
        for key, v in self.pairs:
            if key == (rho, lo, hi):
                return v
        return None

    def adjacent_pairs(self, rho):
        blocks = self.jord_of(rho)
        return tuple(zip(blocks, blocks[1:]))

    @property
    def is_empty(self) -> bool:
        return not self.jord

    @property
    def size(self) -> int:
        return len(self.jord)

    def require_valid(self):
        problems = validate_triple(self)
        if problems:
            raise InvalidTripleError("; ".join(problems))
        return self

    def __eq__(self, other):
        if not isinstance(other, JordanTriple):
            return NotImplemented
        return (self.cusp == other.cusp and self.jord == other.jord
                and self.singles == other.singles and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.cusp, self.jord, self.singles, self.pairs))

    def __str__(self):
        return triple_text(self)

    def __repr__(self):
        return f"JordanTriple<{triple_text(self)}>"


def make_triple(cusp, jord=(), singles=None, pairs=None) -> JordanTriple:
    """Build a triple, deriving pair signs by the product rule wherever
    singles are defined and no explicit pair value was given."""
    singles = dict(singles or {})
    pairs = dict(pairs or {})
    t = JordanTriple(cusp, jord)
    for rho in t.symbols:
        if not singles_defined(cusp, rho):
            continue
        for lo, hi in t.adjacent_pairs(rho):
            if (rho, lo, hi) not in pairs:
                slo, shi = singles.get((rho, lo)), singles.get((rho, hi))
                if slo is not None and shi is not None:
                    pairs[(rho, lo, hi)] = slo * shi
    return JordanTriple(cusp, jord, singles, pairs)


def validate_triple(t: JordanTriple) -> list:
    """All invariant violations, as human-readable strings."""
    problems = []
    for rho, a in t.jord:
        if a < 1:
            problems.append(f"block {a} at {rho.id} is not positive")
        elif not rho.matches_parity(a):
            problems.append(f"block {a} has the wrong parity for {rho.id}")
    single_keys = {key for key, _ in t.singles}
    expected_singles = {(rho, a) for rho, a in t.jord if singles_defined(t.cusp, rho)}
    for key in sorted(single_keys - expected_singles, key=lambda k: (k[0].id, k[1])):
        problems.append(f"single sign on {key[0].id}:{key[1]} is not in the domain")
    for key in sorted(expected_singles - single_keys, key=lambda k: (k[0].id, k[1])):
        problems.append(f"missing single sign on {key[0].id}:{key[1]}")
    pair_keys = {key for key, _ in t.pairs}
    expected_pairs = set()
    for rho in t.symbols:
        for lo, hi in t.adjacent_pairs(rho):
            expected_pairs.add((rho, lo, hi))
    for key in sorted(pair_keys - expected_pairs, key=lambda k: (k[0].id, k[1], k[2])):
        problems.append(f"pair sign on {key[0].id}:{key[1]}-{key[2]} is not adjacent")
    for key in sorted(expected_pairs - pair_keys, key=lambda k: (k[0].id, k[1], k[2])):
        problems.append(f"missing pair sign on {key[0].id}:{key[1]}-{key[2]}")
    for key, v in t.singles:
        if v not in (PLUS, MINUS):
            problems.append(f"single sign {v} on {key[0].id}:{key[1]} is not +1/-1")
    for key, v in t.pairs:
        if v not in (PLUS, MINUS):
            problems.append(f"pair sign {v} on {key[0].id}:{key[1]}-{key[2]} is not +1/-1")
    # product-rule compatibility wherever both data exist
    for (rho, lo, hi) in sorted(pair_keys & expected_pairs, key=lambda k: (k[0].id, k[1], k[2])):
        slo, shi = t.single(rho, lo), t.single(rho, hi)
        pv = t.pair(rho, lo, hi)
        if slo is not None and shi is not None and pv is not None and pv != slo * shi:
            problems.append(f"pair sign on {rho.id}:{lo}-{hi} breaks the product rule")
    return problems


# -- subordination -------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    rho: CuspidalSymbol
    lower: int
    upper: int
    result: JordanTriple


def reduce_at(t: JordanTriple, rho, lower: int, upper: int) -> JordanTriple:
    """Remove the adjacent pair (lower, upper) at rho and rewire signs."""
    blocks = t.jord_of(rho)
    if (lower, upper) not in zip(blocks, blocks[1:]):
        raise ValueError(f"({lower},{upper}) is not an adjacent pair at {rho.id}")
    if t.pair(rho, lower, upper) != PLUS:
        raise ValueError("only pairs carrying +1 can be removed")
    jord = [e for e in t.jord if e not in ((rho, lower), (rho, upper))]
    singles = {key: v for key, v in t.singles if key[0] != rho}
    pairs = {key: v for key, v in t.pairs if key[0] != rho}
    kept = tuple(a for a in blocks if a not in (lower, upper))
    if singles_defined(t.cusp, rho):
        for a in kept:
            singles[(rho, a)] = t.single(rho, a)
        for lo, hi in zip(kept, kept[1:]):
            pairs[(rho, lo, hi)] = singles[(rho, lo)] * singles[(rho, hi)]
    else:
        for lo, hi in zip(kept, kept[1:]):
            old = t.pair(rho, lo, hi)
            if old is not None:
                pairs[(rho, lo, hi)] = old
            else:
                # the bridge between the removed pair's outer neighbours
                pairs[(rho, lo, hi)] = t.pair(rho, lo, lower) * t.pair(rho, upper, hi)
    return JordanTriple(t.cusp, jord, singles, pairs)


def subordinate_reductions(t: JordanTriple) -> list:
    """Every one-step subordination of t, in canonical witness order."""
    t.require_valid()
    out = []
    for rho in t.symbols:
        for lo, hi in t.adjacent_pairs(rho):
            if t.pair(rho, lo, hi) == PLUS:
                out.append(Reduction(rho, lo, hi, reduce_at(t, rho, lo, hi)))
    return out


# -- alternated type and admissibility -----------------------------------


@dataclass(frozen=True)
class AlternatedWitness:
    """The sorted matchings block -> cuspidal target, one row per symbol."""
    matchings: tuple

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


def _universe(t: JordanTriple) -> list:
    """The symbols carrying blocks in t or in its cuspidal support, by id."""
    held = {sym for sym in t.cusp.symbols if t.cusp.jord_of(sym)}
    return sorted(held.union(t.symbols), key=lambda s: s.id)


def is_alternated(t: JordanTriple):
    """The witness matchings if t is of alternated type, else None.

    Every symbol that carries blocks in t or in the cuspidal support is
    inspected: a support symbol absent from t still needs its (empty)
    block set to match the cuspidal target, so a nonempty target there
    rules the witness out.
    """
    return _alternation(t.require_valid())


def _alternation(t: JordanTriple):
    """``is_alternated`` for a triple already known to be valid."""
    for _, v in t.pairs:
        if v != MINUS:
            return None
    matchings = []
    for rho in _universe(t):
        blocks = t.jord_of(rho)
        target = cuspidal_target(t, rho)
        if len(blocks) != len(target):
            return None
        matchings.append((rho, tuple(zip(blocks, sorted(target)))))
    return AlternatedWitness(tuple(matchings))


def _peel(t: JordanTriple, rho):
    """The canonical peel of a valid triple at rho: remove the +1 pair
    with maximal upper endpoint (even rho) or minimal (odd rho) until
    none is left.  The reductions made, or None when the surviving
    blocks at rho do not match the cuspidal target in size."""
    out = []
    cur = t
    while plus := [(lo, hi) for lo, hi in cur.adjacent_pairs(rho) if cur.pair(rho, lo, hi) == PLUS]:
        lo, hi = plus[-1] if rho.parity == EVEN else plus[0]
        out.append(Reduction(rho, lo, hi, reduce_at(cur, rho, lo, hi)))
        cur = out[-1].result
    if len(cur.jord_of(rho)) != len(cuspidal_target(cur, rho)):
        return None
    return out


def is_admissible(t: JordanTriple):
    """The canonical chain of reductions from t to an alternated triple,
    or None: the canonical peel at each symbol carrying blocks in t or
    in the support, in id order.  Compare the result against None: an
    alternated triple is admissible with the EMPTY chain, which is falsy.
    """
    t.require_valid()
    chain = []
    for rho in _universe(t):
        peeled = _peel(chain[-1].result if chain else t, rho)
        if peeled is None:
            return None
        chain.extend(peeled)
    return tuple(chain)


def dominates(t: JordanTriple, other: JordanTriple):
    """A chain of reductions carrying t onto other, or None: the first
    one a depth-first search over reductions in canonical witness order
    meets.  Triples already seen not to reach other are not searched
    again, so each reachable triple is expanded at most once."""
    t.require_valid()
    other.require_valid()
    if t.cusp != other.cusp:
        raise ValueError("dominance only compares triples over one support")
    dead = set()

    def search(cur):
        if cur == other:
            return ()
        if cur.size <= other.size or cur in dead:
            return None
        for red in subordinate_reductions(cur):
            rest = search(red.result)
            if rest is not None:
                return (red,) + rest
        dead.add(cur)
        return None

    return search(t)


# -- extensions ----------------------------------------------------------


def _neighbours(t, rho, lower, upper):
    blocks = t.jord_of(rho)
    pred = max((x for x in blocks if x < lower), default=None)
    succ = min((x for x in blocks if x > upper), default=None)
    return pred, succ


def linking_sign(t: JordanTriple, rho, lower: int, upper: int) -> int:
    """The free sign bit carried by the pair (lower, upper) inside t.

    With singles defined it is the shared single sign of the pair;
    otherwise it is the crossing pair toward the predecessor, falling
    back to the one toward the successor at the lower boundary.
    """
    if singles_defined(t.cusp, rho):
        return t.single(rho, lower)
    pred, succ = _neighbours(t, rho, lower, upper)
    if pred is not None:
        return t.pair(rho, pred, lower)
    if succ is not None:
        return t.pair(rho, upper, succ)
    raise NotAdmissibleError("a pair with no sign data cannot be linked")


def _extend(t, rho, lower, upper, sign):
    """Insert (lower, upper) at rho with value +1 and linking bit sign.
    Of the preconditions of ``dominating_extensions`` it checks the gap."""
    if any(lower <= x <= upper for x in t.jord_of(rho)):
        raise GapError(f"[{lower},{upper}] meets an existing block at {rho.id}")
    jord = t.jord + ((rho, lower), (rho, upper))
    singles = dict(t.singles)
    pairs = dict(t.pairs)
    pred, succ = _neighbours(t, rho, lower, upper)
    if singles_defined(t.cusp, rho):
        singles[(rho, lower)] = sign
        singles[(rho, upper)] = sign
        grown = tuple(sorted(t.jord_of(rho) + (lower, upper)))
        for key in [k for k in pairs if k[0] == rho]:
            del pairs[key]
        for lo, hi in zip(grown, grown[1:]):
            pairs[(rho, lo, hi)] = singles[(rho, lo)] * singles[(rho, hi)]
    else:
        bridge = pairs.pop((rho, pred, succ)) if pred is not None and succ is not None else None
        pairs[(rho, lower, upper)] = PLUS
        if pred is not None:
            pairs[(rho, pred, lower)] = sign
            if succ is not None:
                pairs[(rho, upper, succ)] = bridge * sign
        elif succ is not None:
            pairs[(rho, upper, succ)] = sign
        else:
            raise NotAdmissibleError("no sign data can link the inserted pair")
    return JordanTriple(t.cusp, jord, singles, pairs)


def dominating_extensions(t: JordanTriple, lower: int, upper: int, rho) -> list:
    """The two admissible triples on jord + {(lower, rho), (upper, rho)}
    with sign +1 on the inserted pair that reduce back onto t.

    The insertion interval must be a gap: no existing block at rho may
    lie in [lower, upper].  The two results differ exactly in the free
    linking bit; they are returned with the +1 bit first.
    """
    if is_admissible(t) is None:
        raise NotAdmissibleError("extensions are defined over admissible triples")
    if not isinstance(lower, int) or not isinstance(upper, int) or lower >= upper:
        raise ValueError("need integer blocks with lower < upper")
    if lower < 1:
        raise ValueError("blocks are positive integers")
    for a in (lower, upper):
        if not rho.matches_parity(a):
            raise ValueError(f"block {a} has the wrong parity for {rho.id}")
    return [_extend(t, rho, lower, upper, PLUS),
            _extend(t, rho, lower, upper, MINUS)]


# -- canonical text form --------------------------------------------------


def _sign_char(v: int) -> str:
    return "+" if v == PLUS else "-"


def triple_text(t: JordanTriple) -> str:
    """Canonical one-line serialization; parse_triple inverts it."""
    def section(tag, body):
        return f"{tag}= {body}" if body else f"{tag}="

    jord = " ".join(f"{rho.id}:{a}" for rho, a in t.jord)
    singles = " ".join(f"{rho.id}:{a}:{_sign_char(v)}" for (rho, a), v in t.singles)
    pairs = " ".join(f"{rho.id}:{lo}:{hi}:{_sign_char(v)}" for (rho, lo, hi), v in t.pairs)
    return " ; ".join([f"cusp={t.cusp.id}", section("jord", jord),
                       section("single", singles), section("pair", pairs)])


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
