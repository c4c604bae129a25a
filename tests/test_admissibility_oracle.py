"""Differential oracle for admissibility, dominance and enumeration.

The library decides admissibility by the canonical peel, run symbol by
symbol, enumerates a window as the product of each symbol's survivors,
and builds every subordination step and dominance chain from each
row's sign word.  The reference here keeps none of that: a step is the
pair-sign rule read through the public accessors (the bridge between
the removed pair's outer neighbours takes the product of the two
crossing pairs), alternated type is its definition read the same
way, apart from the peel's walk-end test (``reference_alternated``),
and admissibility and dominance are the depth-first searches over
those steps that the library replaced, run against an
enumerator that pushes the whole joint product of block sets and sign
assignments through them.  The two must agree on every candidate of
every window.  The chain that ``canonical_chain`` reads off each
symbol's sign word must be the chain of ``is_admissible`` with
``linking_sign`` attached, the peel must follow its rule step by step
on larger random triples, ``dominates`` must build the search's first
chain.  Per symbol, the rows the library builds on a block set, and
their count, must be the rows that filtering all sign words through
the peel keeps (``reference_rows``).  Every triple the library builds
has rows, so it is valid by construction, and every chain it builds
carries a mark that lets ``require_valid`` skip it; each one it emits
over the windows and on random triples must pass the full check.
"""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    ChainStep,
    CuspidalSupport,
    CuspidalSymbol,
    NotAdmissibleError,
    canonical_chain,
    chain_violations,
    count_by_jord,
    dominates,
    dominating_extensions,
    enumerate_admissible,
    is_admissible,
    is_alternated,
    linking_sign,
    make_triple,
    parse_triple,
    realize_chain,
    reduce_at,
    singles_defined,
    subordinate_reductions,
    triple_text,
    validate_triple,
)
from segtriples.triples import _admitted, _admitted_ends, _peel, cuspidal_target
from helpers import gap_insertions, reference_text

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0")
C1 = CuspidalSupport("c1", {r: {1}})
C17 = CuspidalSupport("c17", {r: {1, 7}})
BOTH = CuspidalSupport("cb", {r: {3}, q: {2}})
R3Q24 = CuspidalSupport("c3", {r: {3}, q: {2, 4}})
Q6 = CuspidalSupport("c6", {q: {6}})


def reference_reduce(t, rho, lower, upper):
    """t without the adjacent +1 pair (lower, upper) at rho, by the
    pair-sign rule: every other sign is kept, and the bridge between the
    pair's outer neighbours takes the product of the two crossing pairs."""
    blocks = t.jord_of(rho)
    i = blocks.index(lower)
    assert blocks[i + 1] == upper and t.pair(rho, lower, upper) == PLUS
    gone = {(rho, lower), (rho, upper)}
    jord = [(sym, a) for sym in t.symbols for a in t.jord_of(sym) if (sym, a) not in gone]
    singles = {(sym, a): t.single(sym, a) for sym, a in jord if t.single(sym, a) is not None}
    pairs = {(sym, lo, hi): v for (sym, lo, hi), v in t.pairs if not gone & {(sym, lo), (sym, hi)}}
    if 0 < i < len(blocks) - 2:
        pred, succ = blocks[i - 1], blocks[i + 2]
        pairs[(rho, pred, succ)] = t.pair(rho, pred, lower) * t.pair(rho, upper, succ)
    return make_triple(t.cusp, jord, singles, pairs)


def reference_steps(t):
    """Every one-step subordination of t, as (rho, lower, upper, result),
    in canonical witness order: by symbol id, then by pair."""
    return [(rho, lo, hi, reference_reduce(t, rho, lo, hi))
            for (rho, lo, hi), v in t.pairs if v == PLUS]


def reference_alternated(t):
    """Whether t is of alternated type, from the definition through the
    public accessors: every pair carries -1 and, at each symbol carrying
    blocks in t or in its support, the blocks are as many as the cuspidal
    target, the support's blocks there joined with 0 when the lowest
    block is even and carries single sign +1."""
    if any(v != MINUS for _, v in t.pairs):
        return False
    for rho in {*t.symbols, *t.cusp.symbols}:
        blocks = sorted(t.jord_of(rho))
        zero = bool(blocks) and blocks[0] % 2 == 0 and t.single(rho, blocks[0]) == PLUS
        if len(blocks) != len(t.cusp.jord_of(rho)) + zero:
            return False
    return True


def reference_admissible(t, memo):
    """Whether some chain of subordination steps ends in an alternated
    triple (``reference_alternated``); ``memo`` is shared across one window."""
    if t not in memo:
        memo[t] = reference_alternated(t) or any(
            reference_admissible(step[3], memo) for step in reference_steps(t))
    return memo[t]


def reference_dominates(t, other):
    """The first chain of steps from t onto other, as a tuple of
    ``reference_steps`` entries, that a depth-first search over steps in
    canonical witness order meets, or None.  Triples already seen not to
    reach other are not searched again."""
    dead = set()

    def search(cur):
        if cur == other:
            return ()
        if cur.size <= other.size or cur in dead:
            return None
        for step in reference_steps(cur):
            rest = search(step[3])
            if rest is not None:
                return (step,) + rest
        dead.add(cur)
        return None

    return search(t)


def as_steps(chain):
    """A chain of ``Reduction`` values as ``reference_steps`` entries."""
    return None if chain is None else tuple((red.rho, red.lower, red.upper, red.result) for red in chain)


def candidates(cusp, symbols, max_a=None, max_jord=None, jord_sets=None):
    """Every triple of the window: the joint product, over all symbols,
    of block sets and the sign assignments on them."""
    per_symbol = []
    for rho in sorted(symbols, key=lambda s: s.id):
        if jord_sets and rho.id in jord_sets:
            sets = [tuple(sorted(blocks)) for blocks in jord_sets[rho.id]]
        else:
            pool = [a for a in range(1, max_a + 1) if rho.matches_parity(a)]
            sets = [blocks for k in range(len(pool) + 1)
                    if max_jord is None or k <= max_jord
                    for blocks in itertools.combinations(pool, k)]
        rows = []
        for blocks in sets:
            jord = [(rho, a) for a in blocks]
            if singles_defined(cusp, rho):
                for bits in itertools.product((PLUS, MINUS), repeat=len(blocks)):
                    rows.append((jord, dict(zip(jord, bits)), {}))
            else:
                adjacent = [(rho, lo, hi) for lo, hi in zip(blocks, blocks[1:])]
                for bits in itertools.product((PLUS, MINUS), repeat=len(adjacent)):
                    rows.append((jord, {}, dict(zip(adjacent, bits))))
        per_symbol.append(rows)
    for combo in itertools.product(*per_symbol):
        jord, singles, pairs = [], {}, {}
        for j, s, p in combo:
            jord += j
            singles.update(s)
            pairs.update(p)
        yield make_triple(cusp, jord, singles, pairs)


WINDOWS = {
    "c0 [r,q] max_a=7": (C0, [r, q], {"max_a": 7}),
    "c17 [r,q] max_a=9": (C17, [r, q], {"max_a": 9}),
    "c17 [q] max_a=8": (C17, [q], {"max_a": 8}),
    "blocks at both symbols": (BOTH, [r, q], {"max_a": 7}),
    "c1 max_jord=3": (C1, [r, q], {"max_a": 9, "max_jord": 3}),
    "c17 jord_sets": (C17, [r, q], {"max_a": 6, "jord_sets": {
        "r": [[], [1, 7], [1, 3, 5, 7], [3, 5, 7, 9], [1, 3, 5, 7, 9, 11]]}}),
}


@pytest.mark.parametrize("name", WINDOWS)
def test_peel_agrees_with_the_search(name):
    cusp, symbols, bounds = WINDOWS[name]
    memo = {}
    admitted = []
    for t in candidates(cusp, symbols, **bounds):
        assert (is_alternated(t) is not None) == reference_alternated(t), triple_text(t)
        chain = is_admissible(t)
        assert (chain is not None) == reference_admissible(t, memo), triple_text(t)
        if chain is None:
            continue
        cur = t
        steps = []
        for red in chain:
            assert red.result == reference_reduce(cur, red.rho, red.lower, red.upper)
            steps.append(ChainStep(red.rho, red.lower, red.upper,
                                   linking_sign(cur, red.rho, red.lower, red.upper)))
            cur = red.result
        assert is_alternated(cur) is not None
        canon = canonical_chain(t)
        assert canon.steps == tuple(reversed(steps)), triple_text(t)
        assert canon.base == cur
        admitted.append(t)
    admitted.sort(key=triple_text)
    assert enumerate_admissible(cusp, symbols, **bounds) == admitted


def assert_emitted_values_are_valid(t, top):
    """Every triple the library builds from the valid t has rows, every
    chain is marked valid, and each passes the full check: the one-step reductions and,
    when t is admissible, the triples of its ``is_admissible`` chain, its
    canonical chain, the triple realized from it, the ``dominates`` chain
    onto its base and the dominating extensions into every gap up to top."""
    built = [red.result for red in subordinate_reductions(t)]
    chain = is_admissible(t)
    if chain is not None:
        canon = canonical_chain(t)
        assert canon._valid and chain_violations(canon) == [], triple_text(t)
        built += [red.result for red in chain] + [realize_chain(canon)]
        built += [red.result for red in dominates(t, canon.base)]
        for rho in (r, q):
            for lower, upper in gap_insertions(t, rho, top):
                with contextlib.suppress(NotAdmissibleError):
                    built += dominating_extensions(t, lower, upper, rho)
    for u in built:
        assert u.rows is not None and validate_triple(u) == [], (triple_text(t), triple_text(u))


@pytest.mark.parametrize("name", WINDOWS)
def test_every_marked_value_passes_the_full_check(name):
    cusp, symbols, bounds = WINDOWS[name]
    for t in enumerate_admissible(cusp, symbols, **bounds):
        assert t.rows is not None and validate_triple(t) == [], triple_text(t)
        assert_emitted_values_are_valid(t, bounds["max_a"] + 3)


@pytest.mark.parametrize("name", WINDOWS)
def test_triple_text_is_the_reference_text(name):
    # the writer against one built from the public accessors alone: on every enumerated
    # triple, its reductions, realized chain and parsed text, and an extension at each symbol
    cusp, symbols, bounds = WINDOWS[name]
    for t in enumerate_admissible(cusp, symbols, **bounds):
        built = [t, realize_chain(canonical_chain(t)), parse_triple(triple_text(t), cusp, {"r": r, "q": q})]
        built += [red.result for red in subordinate_reductions(t)]
        for rho in symbols:
            for lower, upper in gap_insertions(t, rho, bounds["max_a"] + 3)[:1]:
                built += dominating_extensions(t, lower, upper, rho)
        for u in built:
            assert triple_text(u) == reference_text(u)


def test_support_blocks_outside_the_window_admit_nothing():
    cusp, symbols, bounds = WINDOWS["c17 [q] max_a=8"]
    assert enumerate_admissible(cusp, symbols, **bounds) == []


def test_enumeration_count_at_max_a_11():
    assert len(enumerate_admissible(C0, [r, q], max_a=11)) == 13536


@st.composite
def valid_triples(draw):
    """A valid triple with up to 12 blocks per symbol over one of four
    support shapes: none, odd blocks only, both parities, even only.
    Each row's sign word is random (one row in four), or grown from an
    alternating word of the target's size (at an even symbol, possibly
    one more) by inserting equal adjacent letters, so that many rows
    peel down to their target."""
    cusp = draw(st.sampled_from([C0, C17, R3Q24, Q6]))
    sign = st.sampled_from((PLUS, MINUS))
    jord, singles, pairs = [], {}, {}
    for rho in (r, q):
        if draw(st.integers(0, 3)) == 0:
            word = [draw(sign) for _ in range(draw(st.integers(0, 12)))]
        else:
            first = draw(sign)
            size = len(cusp.jord_of(rho)) + (rho.parity == EVEN and draw(st.integers(0, 1)))
            word = [first * (-1) ** k for k in range(size)]
            for _ in range(draw(st.integers(0, (12 - len(word)) // 2))):
                at = draw(st.integers(0, len(word)))
                word[at:at] = [draw(sign)] * 2
        blocks = sorted(draw(st.lists(st.sampled_from(rho.blocks_upto(27)), unique=True,
                                      min_size=len(word), max_size=len(word))))
        jord += [(rho, a) for a in blocks]
        if singles_defined(cusp, rho):
            singles.update({(rho, a): v for a, v in zip(blocks, word)})
        else:
            pairs.update({(rho, lo, hi): v * w
                          for lo, hi, v, w in zip(blocks, blocks[1:], word, word[1:])})
    return make_triple(cusp, jord, singles, pairs)


@settings(max_examples=200, deadline=None)
@given(valid_triples())
def test_marked_values_pass_the_full_check_on_random_triples(t):
    assert_emitted_values_are_valid(t, 29)


@settings(max_examples=300, deadline=None)
@given(valid_triples())
def test_each_reduction_removes_the_extremal_plus_pair(t):
    # the reference peel: at each symbol, remove the extremal +1 pair until none is left
    chain = is_admissible(t)
    cur, expected, misses = t, [], False
    for rho in sorted(set(t.cusp.symbols) | set(t.symbols), key=lambda s: s.id):
        while plus := [(lo, hi) for lo, hi in cur.adjacent_pairs(rho) if cur.pair(rho, lo, hi) == PLUS]:
            lo, hi = plus[-1] if rho.parity == EVEN else plus[0]
            step = reference_reduce(cur, rho, lo, hi)
            assert reduce_at(cur, rho, lo, hi) == step
            cur = step
            expected.append((rho, lo, hi, cur))
        misses = misses or len(cur.jord_of(rho)) != len(cuspidal_target(cur, rho))
    assert (chain is None) == misses
    if chain is not None:
        assert [(red.rho, red.lower, red.upper, red.result) for red in chain] == expected


SWEEPS = {
    "c0 [r,q] max_a=5": (C0, [r, q], 5, 451),
    "c17 [r] max_a=9": (C17, [r], 9, 295),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_dominates_agrees_with_the_search(name):
    # a step removes two blocks, so only pairs whose sizes differ by an even number can be linked
    cusp, symbols, max_a, dominated = SWEEPS[name]
    triples = list(candidates(cusp, symbols, max_a=max_a))
    found = 0
    for t, other in itertools.product(triples, repeat=2):
        if (t.size - other.size) % 2 == 0:
            chain = as_steps(dominates(t, other))
            assert chain == reference_dominates(t, other), (triple_text(t), triple_text(other))
            found += chain is not None
    assert found == dominated


@st.composite
def dominated_pairs(draw):
    """A valid triple t and a triple it dominates, with up to 14 blocks
    per symbol over one of four support shapes.  Each symbol's word is a
    random survivor word with equal adjacent letters inserted anywhere;
    t carries the whole word, the other triple only the survivors."""
    cusp = draw(st.sampled_from([C0, C17, R3Q24, Q6]))
    sign = st.sampled_from((PLUS, MINUS))
    rows = ([], {}, {}), ([], {}, {})
    for rho in (r, q):
        word = [(draw(sign), True) for _ in range(draw(st.integers(0, 6)))]
        for _ in range(draw(st.integers(0, (14 - len(word)) // 2))):
            at = draw(st.integers(0, len(word)))
            word[at:at] = [(draw(sign), False)] * 2
        blocks = sorted(draw(st.lists(st.sampled_from(rho.blocks_upto(31)), unique=True,
                                      min_size=len(word), max_size=len(word))))
        for (jord, singles, pairs), survivors_only in zip(rows, (False, True)):
            row = [(a, v) for a, (v, survivor) in zip(blocks, word) if survivor or not survivors_only]
            jord += [(rho, a) for a, _ in row]
            if singles_defined(cusp, rho):
                singles.update({(rho, a): v for a, v in row})
            else:
                pairs.update({(rho, lo, hi): v * w for (lo, v), (hi, w) in zip(row, row[1:])})
    return tuple(make_triple(cusp, *row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(dominated_pairs())
def test_dominates_builds_the_first_chain_of_the_search(pair):
    t, other = pair
    chain = as_steps(dominates(t, other))
    assert chain is not None and len(chain) == (t.size - other.size) // 2
    cur = t
    for rho, lower, upper, result in chain:
        assert not {lower, upper} & set(other.jord_of(rho))
        assert result == reference_reduce(cur, rho, lower, upper)
        cur = result
    assert cur == other
    # the reference search grows steeply with size: on a 2-vCPU Xeon under Python 3.11,
    # up to 0.5 s a pair at 20 blocks and 22 s at 28
    if t.size <= 16:
        assert chain == reference_dominates(t, other)


def reference_rows(cusp, rho, blocks):
    """Every row at rho over cusp on the sorted blocks that the peel
    admits, by filtering all sign words: every word where singles are
    defined, else every word that starts at +1 (a word counts only up to
    sign there); as ``_admitted`` gives them."""
    derive = singles_defined(cusp, rho)
    for bits in itertools.product((PLUS, MINUS), repeat=len(blocks) - (not derive and bool(blocks))):
        row = (blocks, bits if derive else (PLUS,) * bool(blocks) + bits)
        if _peel(cusp, rho, row) is not None:
            yield {rho: row} if blocks else {}


def stack_count(cusp, rho, n):
    """How many words on n blocks at rho the peel admits, by running its
    stack on all of them at once.  The kept letters alternate, so a stack
    is its height and top letter (0 when empty), and a letter equal to
    the top pops it.  Even symbols are read from the top, odd ones from
    the bottom; where singles are undefined the lowest letter is +1 (a
    word counts only up to sign there).  Admitted: a height of the
    cuspidal block count, plus one at an even symbol whose lowest kept
    letter, the top at the end, is +1."""
    even = rho.parity == EVEN
    fixed = None if singles_defined(cusp, rho) else n - 1 if even else 0  # where the lowest letter is read
    states = {(0, 0): 1}
    for i in range(n):
        letters = (PLUS,) if i == fixed else (PLUS, MINUS)
        after = {}
        for (height, top), count in states.items():
            for v in letters:
                state = (height + 1, v) if v != top else (height - 1, -v if height > 1 else 0)
                after[state] = after.get(state, 0) + count
        states = after
    target = len(cusp.jord_of(rho))
    return sum(count for (height, top), count in states.items() if height == target + (even and top == PLUS))


@pytest.mark.parametrize("rho", [r, q], ids=lambda s: s.id)
@pytest.mark.parametrize("t", range(4))
def test_count_by_jord_is_the_stack_count(rho, t):
    pool = rho.blocks_upto(420)
    cusp = CuspidalSupport("c", {rho: pool[:t]})
    for n in [*range(15), 51, 200, 201]:
        assert count_by_jord(cusp, {rho: pool[:n]}) == stack_count(cusp, rho, n), n


def frozen_rows(rows):
    """A row map as a hashable value."""
    return tuple(rows.items())


@pytest.mark.parametrize("cusp", [C0, C1, C17, BOTH, R3Q24, Q6], ids=lambda c: c.id)
@pytest.mark.parametrize("rho", [r, q], ids=lambda s: s.id)
def test_admissible_rows_are_the_filtered_rows(cusp, rho):
    rnd = random.Random(f"{cusp.id}{rho.id}")
    pool = rho.blocks_upto(31)
    for n in range(11):
        for _ in range(2):
            blocks = tuple(sorted(rnd.sample(pool, n)))
            built = [frozen_rows({rho: (blocks, word)} if blocks else {})
                     for _, _, words in _admitted(cusp, rho, [(n, 1, (blocks,))]) for word in words]
            assert len(set(built)) == len(built), blocks
            assert set(built) == {frozen_rows(rows) for rows in reference_rows(cusp, rho, blocks)}, blocks


@pytest.mark.parametrize("rho, t", [(r, 0), (r, 1), (r, 2), (r, 3), (q, 0), (q, 1), (q, 2)])
def test_count_by_jord_is_a_binomial(rho, t):
    rnd = random.Random(f"{rho.id}{t}")
    pool = rho.blocks_upto(31)
    for n in range(13):
        for _ in range(2):
            cusp = CuspidalSupport("c", {rho: rnd.sample(pool, t)})
            blocks = rnd.sample(pool, n)
            want = len(list(reference_rows(cusp, rho, tuple(sorted(blocks)))))
            assert count_by_jord(cusp, {rho: blocks}) == want, (cusp, blocks)


def walk_end(word):
    """Where a word's walk ends, read lowest block first from 0: step i leaves
    a point of parity i, and a +1 letter steps up from an even point."""
    return sum(word[::2]) - sum(word[1::2])


def assert_peel_admits_by_walk_end(cusp, rho, word):
    """``_peel`` admits the word exactly when its walk ends in ``_admitted_ends``,
    up to sign where singles are undefined (a word there counts up to sign)."""
    blocks = tuple(rho.blocks_upto(2 * len(word) + 2)[:len(word)])
    ends = _admitted_ends(cusp, rho, len(word))
    e = walk_end(word)
    admitted = e in ends or (not singles_defined(cusp, rho) and -e in ends)
    assert (_peel(cusp, rho, (blocks, tuple(word))) is not None) == admitted, (cusp, word)


PEEL_SUPPORTS = [(r, ()), (r, (1,)), (r, (1, 7)), (q, ()), (q, (2,)), (q, (2, 4))]


@pytest.mark.parametrize("rho, cusp_blocks", PEEL_SUPPORTS,
                         ids=[f"{rho.id}-{len(blocks)}" for rho, blocks in PEEL_SUPPORTS])
def test_peel_admits_by_the_walk_end(rho, cusp_blocks):
    cusp = CuspidalSupport("c", {rho: cusp_blocks})
    # an oracle apart from the stack: every word of up to 12 letters, then long rows near the ends
    for n in range(13):
        for word in itertools.product((PLUS, MINUS), repeat=n):
            assert_peel_admits_by_walk_end(cusp, rho, word)
    rnd = random.Random(f"walk {cusp.id} {rho.id}")
    for _ in range(40):
        n = rnd.randrange(50, 401)
        e = rnd.choice([e for e in range(-5, 6) if (n - e) % 2 == 0])
        ups = set(rnd.sample(range(n), (n + e) // 2))
        word = [PLUS if (i in ups) == (i % 2 == 0) else MINUS for i in range(n)]
        assert walk_end(word) == e
        assert_peel_admits_by_walk_end(cusp, rho, word)


def unranked_triple(cusp, rho, n, rnd):
    """A random admissible triple with n blocks at rho, unranked from its walk:
    an end from ``_admitted_ends`` and a random set of up steps; step i leaves
    a point of parity i, and up from an even point is a +1 letter."""
    blocks = sorted(rnd.sample(rho.blocks_upto(4 * n), n))
    ups = set(rnd.sample(range(n), (n + rnd.choice(_admitted_ends(cusp, rho, n))) // 2))
    word = [PLUS if (i in ups) == (i % 2 == 0) else MINUS for i in range(n)]
    jord = [(rho, a) for a in blocks]
    if singles_defined(cusp, rho):
        return make_triple(cusp, jord, dict(zip(jord, word)))
    return make_triple(cusp, jord, {}, {(rho, lo, hi): v * w for lo, hi, v, w
                                        in zip(blocks, blocks[1:], word, word[1:])})


def stack_admits(t, rho):
    """Whether the stack reduction of t's word at rho, read through the public
    accessors from the top (even rho) or the bottom (odd rho), keeps the target."""
    blocks = t.jord_of(rho)
    word = [t.single(rho, a) for a in blocks] if singles_defined(t.cusp, rho) else list(
        itertools.accumulate((t.pair(rho, lo, hi) for lo, hi in zip(blocks, blocks[1:])),
                             lambda v, s: v * s, initial=PLUS))
    stack = []
    for v in word[::-1] if rho.parity == EVEN else word:
        if stack and stack[-1] == v:
            stack.pop()
        else:
            stack.append(v)
    zero = rho.parity == EVEN and stack and stack[-1] == PLUS  # the lowest block kept carries +1
    return len(stack) == len(t.cusp.jord_of(rho)) + bool(zero)


@pytest.mark.parametrize("cusp, rho", [(C0, r), (C0, q), (C17, r), (Q6, q)],
                         ids=["c0-r", "c0-q", "c17-r", "c6-q"])
def test_long_rows_pass_the_round_trips(cusp, rho):
    rnd = random.Random(f"long {cusp.id} {rho.id}")
    for n in [50, 51, 400, 401] + [rnd.randrange(50, 401) for _ in range(4)]:
        if not _admitted_ends(cusp, rho, n):
            n += 1
        t = unranked_triple(cusp, rho, n, rnd)
        assert stack_admits(t, rho), n
        chain = canonical_chain(t)
        realized = realize_chain(chain)  # built by the trusted builder, t by make_triple
        assert realized == t and hash(realized) == hash(t)
        back = parse_triple(triple_text(t), cusp, {"r": r, "q": q})
        assert back == t and hash(back) == hash(t)
        assert is_alternated(chain.base) is not None
        assert dominates(t, chain.base) is not None
        blocks, letters = t.rows[rho]
        i = next(i for i in range(n - 1) if letters[i] == letters[i + 1])
        reduced = reduce_at(t, rho, blocks[i], blocks[i + 1])
        jord = [(rho, a) for a in reduced.jord_of(rho)]
        rebuilt = (make_triple(cusp, jord, {(rho, a): reduced.single(rho, a) for _, a in jord})
                   if singles_defined(cusp, rho) else make_triple(cusp, jord, {}, dict(reduced.pairs)))
        assert rebuilt == reduced and hash(rebuilt) == hash(reduced)
