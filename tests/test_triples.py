import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    CuspidalSupport,
    CuspidalSymbol,
    EmbeddingDatum,
    GapError,
    InvalidTripleError,
    JordanTriple,
    NotAdmissibleError,
    Segment,
    canonical_chain,
    chain_text,
    dominates,
    dominating_extensions,
    enumerate_admissible,
    is_admissible,
    is_alternated,
    linking_sign,
    make_triple,
    parse_chain,
    parse_triple,
    reduce_at,
    singles_defined,
    subordinate_reductions,
    triple_text,
    validate_triple,
)
from segtriples.config import load_config
from segtriples import triples
from segtriples.triples import _peels, cuspidal_target
from helpers import odd_triple, run_cli

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0")
C1 = CuspidalSupport("c1", {r: {1}})
C17 = CuspidalSupport("c17", {r: {1, 7}})
SYMBOLS = {"r": r, "q": q}


# -- supports and sign domains ----------------------------------------------


def test_support_stores_blocks_per_symbol():
    assert C17.jord_of(r) == {1, 7}
    assert C17.jord_of(q) == frozenset()
    assert C17.symbols == (r,)
    with pytest.raises(ValueError):
        CuspidalSupport("x", {r: {2}})  # wrong parity
    with pytest.raises(ValueError):
        CuspidalSupport("x", {r: {0}})
    with pytest.raises(TypeError, match="^support keys must be CuspidalSymbol objects$"):
        CuspidalSupport("c", {"r": [1]})


@pytest.mark.parametrize("ch", [" ", "\t", "\n", "\u2003", ";", "{", "}"], ids=repr)
def test_support_ids_hold_nothing_the_text_form_ends_on(ch):
    with pytest.raises(ValueError, match="^support id .* must hold no whitespace, ';', '{' or '}'$"):
        CuspidalSupport(f"c{ch}0", {r: {1}})
    with pytest.raises(ValueError, match="^support id must be a nonempty string$"):
        CuspidalSupport("")


def test_ids_with_colons_and_equals_signs_round_trip():
    a, b = CuspidalSymbol("a:1=b", 1, ODD), CuspidalSymbol("b=:2", 2, EVEN)
    cusp = CuspidalSupport("c=0:1", {a: {1}})
    symbols = {a.id: a, b.id: b}
    got = enumerate_admissible(cusp, [a, b], max_a=5)
    assert len(got) == len(enumerate_admissible(CuspidalSupport("c", {r: {1}}), [r, q], max_a=5)) == 30
    for t in got:
        assert validate_triple(t) == []
        assert parse_triple(triple_text(t), cusp, symbols) == t
        chain = canonical_chain(t)
        assert parse_chain(chain_text(chain), cusp, symbols) == chain


def test_support_equality_is_content_based():
    assert CuspidalSupport("c17", {r: {7, 1}}) == C17
    assert CuspidalSupport("c17", {r: {1, 3}}) != C17


def test_support_looks_blocks_up_by_symbol_value():
    assert C17.jord_of(CuspidalSymbol("r", 1, ODD)) == {1, 7}  # equal, built apart
    assert C17.jord_of(CuspidalSymbol("p", 1, ODD)) == frozenset()
    assert not singles_defined(C17, CuspidalSymbol("r", 1, ODD))


def test_support_key_order_is_not_kept():
    one = CuspidalSupport("cb", {r: {3, 1}, q: [4, 2]})
    other = CuspidalSupport("cb", {q: {2, 4}, r: (1, 3)})
    assert one == other and hash(one) == hash(other)
    assert one.symbols == other.symbols == (q, r)
    assert CuspidalSupport("cb", {q: {2, 4}}) != one


def test_support_repr_is_pinned():
    assert repr(CuspidalSupport("cb", {r: {3, 1}, q: [4, 2]})) == "CuspidalSupport('cb', {'q': [2, 4], 'r': [1, 3]})"
    assert repr(C0) == "CuspidalSupport('c0', {})"


def test_peels_visit_a_support_symbol_the_triple_lacks(monkeypatch):
    # q lies between p and r in id order and carries blocks only in the support
    p = CuspidalSymbol("p", 2, EVEN)
    cusp = CuspidalSupport("cq", {q: {2}})
    t = make_triple(cusp, [(p, 2), (r, 1), (r, 3)], {(p, 2): PLUS, (r, 1): PLUS, (r, 3): MINUS})
    seen = []
    peel = triples._peel
    monkeypatch.setattr(triples, "_peel", lambda *args: seen.append(args[1:]) or peel(*args))
    assert _peels(t) is None
    assert seen == [(p, t.rows[p]), (q, ((), ()))]
    assert is_admissible(t) is None and is_alternated(t) is None


def test_support_drops_empty_block_sets():
    bare = CuspidalSupport("c", {r: [], q: set()})
    assert bare == CuspidalSupport("c", {}) and hash(bare) == hash(CuspidalSupport("c"))
    assert bare.symbols == ()
    assert CuspidalSupport("c17", {r: {1, 7}, q: []}) == C17
    # triples over either form of the support with one text are one triple
    text = "cusp=c ; jord= r:1 ; single= r:1:+ ; pair="
    assert parse_triple(text, bare, SYMBOLS) == parse_triple(text, CuspidalSupport("c"), SYMBOLS)


def test_singles_defined_rule():
    # even symbols always carry singles; odd ones only over a support
    # whose cuspidal blocks at the symbol vanish
    assert singles_defined(C0, q)
    assert singles_defined(C17, q)
    assert singles_defined(C0, r)
    assert not singles_defined(C1, r)
    assert not singles_defined(C17, r)


# -- construction and validation ----------------------------------------------


def test_triple_is_canonical():
    t1 = odd_triple(C0, [3, 1], {1: PLUS, 3: PLUS})
    t2 = odd_triple(C0, [1, 3], {3: PLUS, 1: PLUS})
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1.jord_of(r) == (1, 3)
    assert t1.adjacent_pairs(r) == ((1, 3),)
    assert t1.single(r, 1) == PLUS and t1.single(r, 5) is None
    assert t1.pair(r, 1, 3) == PLUS and t1.pair(r, 3, 5) is None
    assert t1.size == 2 and not t1.is_empty


def test_make_triple_fills_pairs_by_the_product_rule():
    t = odd_triple(C0, [1, 3, 5], {1: PLUS, 3: MINUS, 5: MINUS})
    assert t.pair(r, 1, 3) == MINUS
    assert t.pair(r, 3, 5) == PLUS
    assert validate_triple(t) == []


def test_rows_store_pair_signs_only_where_singles_are_undefined():
    assert make_triple is JordanTriple
    # a given pair equal to the product of its singles is dropped, so a
    # record that leaves it out builds the same triple
    jord, singles = [(q, 2), (q, 4)], {(q, 2): PLUS, (q, 4): PLUS}
    t = JordanTriple(C0, jord, singles, {(q, 2, 4): PLUS})
    assert t == JordanTriple(C0, jord, singles) and hash(t) == hash(JordanTriple(C0, jord, singles))
    assert t.rows == {q: ((2, 4), (PLUS, PLUS))}
    assert t.pairs == (((q, 2, 4), PLUS),)
    assert validate_triple(t) == []
    # no row stores a pair sign: each is its blocks and their letters, a
    # word that starts at +1 where singles are undefined
    for cusp in (C0, C17):
        for t in enumerate_admissible(cusp, [r, q], max_a=7):
            assert validate_triple(t) == []
            for rho, row in t.rows.items():
                blocks, letters = row
                assert len(row) == 2 and len(blocks) == len(letters) > 0, triple_text(t)
                assert singles_defined(cusp, rho) or letters[0] == PLUS, triple_text(t)


@pytest.mark.parametrize("cusp, rho", [(C0, q), (C1, r)], ids=["c0-q", "c1-r"])
def test_accessors_read_a_long_row(cusp, rho):
    # 400 blocks with random signs, singles where defined, else pairs
    rnd = random.Random(f"accessors {cusp.id} {rho.id}")
    blocks = rho.blocks_upto(1000)[:400]
    signs = [rnd.choice((PLUS, MINUS)) for _ in blocks]
    jord = [(rho, a) for a in blocks]
    t = (make_triple(cusp, jord, {(rho, a): v for a, v in zip(blocks, signs)})
         if singles_defined(cusp, rho) else
         make_triple(cusp, jord, {}, {(rho, lo, hi): v for lo, hi, v in zip(blocks, blocks[1:], signs)}))
    _, letters = t.rows[rho]
    pairs = dict(t.pairs)
    assert len(pairs) == 399
    for i, (lo, hi) in enumerate(zip(blocks, blocks[1:])):
        assert t.pair(rho, lo, hi) == pairs[(rho, lo, hi)]
        assert t.pair(rho, hi, lo) is None
        if i + 2 < len(blocks):
            assert t.pair(rho, lo, blocks[i + 2]) is None
    assert t.pair(rho, blocks[-1], blocks[-1] + 2) is None and t.pair(rho, 0, blocks[0]) is None
    for a, v in zip(blocks, letters):
        assert t.single(rho, a) == (v if singles_defined(cusp, rho) else None)
    assert t.single(rho, blocks[-1] + 2) is None and t.single(rho, "x") is None


@pytest.mark.parametrize("jord,singles,pairs", [
    ([(r, 3.7)], None, None),
    ([(r, 3)], None, {(r, 1, 3): True}),
    ([(r, 1), (r, 3)], {(r, 1.0): PLUS}, None),
    ([(r, 1), (r, 3)], {(r, 1): 1.0}, None),
    ([(r, 1), (r, 3)], None, {(r, 1, 3.5): PLUS}),
])
def test_constructor_rejects_non_integer_blocks_and_signs(jord, singles, pairs):
    with pytest.raises(ValueError, match="not an integer"):
        JordanTriple(C1, jord, singles, pairs)


@pytest.mark.parametrize("jord,singles,pairs", [
    ([("r", 1)], None, None),
    ([(r, 1)], {("r", 1): PLUS}, None),
    ([(r, 1), (r, 3)], None, {("r", 1, 3): PLUS}),
])
def test_constructor_rejects_keys_that_are_not_symbols(jord, singles, pairs):
    with pytest.raises(TypeError, match="^triple keys must be CuspidalSymbol objects$"):
        JordanTriple(C17, jord, singles, pairs)


@pytest.mark.parametrize("v", [0, 5, -2])
def test_constructor_rejects_signs_other_than_plus_minus_one(v):
    with pytest.raises(ValueError, match=rf"^sign {v} is not \+1/-1$"):
        JordanTriple(C0, [(r, 1)], {(r, 1): v})
    with pytest.raises(ValueError, match=rf"^sign {v} is not \+1/-1$"):
        JordanTriple(C17, [(r, 1), (r, 3)], None, {(r, 1, 3): v})


def test_validate_empty_triple():
    assert validate_triple(JordanTriple(C0)) == []


def test_validate_flags_parity():
    t = JordanTriple(C0, [(r, 4)], {(r, 4): PLUS})
    problems = validate_triple(t)
    assert any("parity" in p for p in problems)


def test_validate_flags_product_rule():
    t = JordanTriple(C0, [(q, 2), (q, 4)],
                     {(q, 2): PLUS, (q, 4): PLUS},
                     {(q, 2, 4): MINUS})
    problems = validate_triple(t)
    assert any("product rule" in p for p in problems)


def test_validate_flags_domain_errors():
    # a single on an odd symbol over nonreducible cuspidal data is
    # outside the domain; a missing one inside the domain is also flagged
    t = JordanTriple(C1, [(r, 3)], {(r, 3): PLUS})
    assert any("not in the domain" in p for p in validate_triple(t))
    t = JordanTriple(C0, [(r, 3)])
    assert any("missing single" in p for p in validate_triple(t))
    t = JordanTriple(C0, [(r, 1), (r, 3)],
                     {(r, 1): PLUS, (r, 3): PLUS},
                     {(r, 1, 3): PLUS, (r, 1, 5): MINUS})
    assert any("not adjacent" in p for p in validate_triple(t))


def test_require_valid_raises():
    with pytest.raises(InvalidTripleError):
        JordanTriple(C0, [(r, 4)], {(r, 4): PLUS}).require_valid()


def test_validate_ignores_the_valid_mark():
    # a triple with rows is valid by construction, yet the full check must still report every violation
    t = JordanTriple(C1, [(r, 2), (r, 3), (r, 5), (q, 2), (q, 4), (q, 6)],
                     {(r, 3): PLUS, (q, 2): PLUS, (q, 4): PLUS},
                     {(r, 3, 5): PLUS, (r, 3, 9): MINUS, (q, 2, 4): MINUS})
    assert t.rows is None
    assert validate_triple(t) == [
        "block 2 is not a positive integer of odd parity at r",
        "single sign on r:3 is not in the domain",
        "missing single sign on q:6",
        "pair sign on r:3-9 is not adjacent",
        "missing pair sign on q:4-6",
        "missing pair sign on r:2-3",
        "pair sign on q:2-4 breaks the product rule",
    ]
    with pytest.raises(InvalidTripleError, match="^block 2 is not .* breaks the product rule$"):
        t.require_valid()
    # rows handed to the trusted builder are checked in full too
    good = {q: ((2, 4, 6), (PLUS, PLUS, MINUS)), r: ((3, 5), (PLUS, PLUS))}
    assert validate_triple(JordanTriple._of_rows(C1, good)) == []
    for rows, problems in [
        ({**good, r: ((2, 3), (PLUS, PLUS))}, ["block 2 is not a positive integer of odd parity at r"]),
        ({**good, q: ((2, 4, 6), (PLUS, PLUS))}, ["missing single sign on q:6", "missing pair sign on q:4-6"]),
        ({**good, r: ((3, 5), (MINUS, MINUS))}, ["the rows are not in canonical form"]),  # r starts at -1
        ({**good, r: ((5, 3), (PLUS, PLUS))},
         ["pair sign on r:5-3 is not adjacent", "missing pair sign on r:3-5"]),
        ({r: good[r], q: good[q]}, ["the rows are not in canonical form"]),  # not in id order
        ({**good, r: ((), ())}, ["the rows are not in canonical form"]),  # an empty row
    ]:
        assert validate_triple(JordanTriple._of_rows(C1, rows)) == problems, rows


def test_an_invalid_triple_answers_only_for_its_check():
    # the fixture config's "bad" triple loads, as config triples are parsed but not validated
    base = str(Path(__file__).parent / "fixtures" / "base.json")
    text = "cusp=c0 ; jord= r:1 ; single= ; pair="
    bad = load_config(base).triples["bad"]
    assert bad == JordanTriple(C0, [(r, 1)]) and hash(bad) == hash(JordanTriple(C0, [(r, 1)]))
    assert bad == parse_triple(text, C0, SYMBOLS) and bad != JordanTriple(C0, [(r, 1)], {(r, 1): PLUS})
    assert str(bad) == text and repr(bad) == f"JordanTriple<{text}>"
    assert validate_triple(bad) == ["missing single sign on r:1"]
    readers = [bad.require_valid, lambda: bad.jord_of(r), lambda: bad.single(r, 1), lambda: bad.pair(r, 1, 3),
               lambda: bad.pairs, lambda: bad.size, lambda: bad.symbols, lambda: cuspidal_target(bad, r)]
    for read in readers:
        with pytest.raises(InvalidTripleError, match="^missing single sign on r:1$"):
            read()
    assert run_cli(["check", "--config", base, "--triple", "bad"]) == (
        1, "violation: missing single sign on r:1\n", "")


def test_a_marked_triple_is_an_unmarked_triple():
    # an enumerated triple, built from rows and keeping its text, and one parsed from that text
    for marked in enumerate_admissible(C17, [r, q], max_a=6):
        t = parse_triple(triple_text(marked), C17, SYMBOLS)
        assert marked._text is not None and t._text is None
        assert list(marked.rows.items()) == list(t.rows.items())
        assert marked == t and hash(marked) == hash(t)
        assert repr(marked) == repr(t) and str(marked) == str(t)


# -- subordination -------------------------------------------------------------


def test_reduction_of_an_even_pair():
    t = make_triple(C0, [(q, 2), (q, 4)], {(q, 2): PLUS, (q, 4): PLUS})
    reds = subordinate_reductions(t)
    assert len(reds) == 1
    red = reds[0]
    assert (red.rho, red.lower, red.upper) == (q, 2, 4)
    assert red.result == JordanTriple(C0)


def test_reduction_bridges_across_the_removed_pair():
    t = odd_triple(C17, [1, 3, 5, 7],
                   pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS})
    reds = subordinate_reductions(t)
    assert len(reds) == 1
    red = reds[0]
    assert (red.lower, red.upper) == (3, 5)
    assert red.result.jord_of(r) == (1, 7)
    assert red.result.pair(r, 1, 7) == PLUS  # (-1) * (-1)
    assert validate_triple(red.result) == []


def test_reduction_restricts_singles():
    t = odd_triple(C0, [1, 3, 5, 7],
                   {1: PLUS, 3: PLUS, 5: MINUS, 7: MINUS})
    out = reduce_at(t, r, 1, 3)
    assert out.jord_of(r) == (5, 7)
    assert out.single(r, 5) == MINUS and out.single(r, 7) == MINUS
    assert out.pair(r, 5, 7) == PLUS


def test_all_minus_triples_have_no_reductions():
    t = odd_triple(C17, [1, 3], pairs={(1, 3): MINUS})
    assert subordinate_reductions(t) == []


def test_reduce_at_guards():
    t = odd_triple(C0, [1, 3, 5, 7],
                   {1: PLUS, 3: PLUS, 5: MINUS, 7: MINUS})
    with pytest.raises(ValueError, match="adjacent"):
        reduce_at(t, r, 1, 5)
    with pytest.raises(ValueError, match=r"\+1"):
        reduce_at(t, r, 3, 5)  # that pair carries -1


@pytest.mark.parametrize("call", [
    lambda t: reduce_at(t, "r", 1, 3),
    lambda t: linking_sign(t, "r", 1, 3),
    lambda t: dominating_extensions(JordanTriple(C0), 1, 3, "r"),
    lambda t: Segment("r", 0, 0),
    lambda t: EmbeddingDatum("r", 1, 0),
], ids=["reduce_at", "linking_sign", "dominating_extensions", "Segment", "EmbeddingDatum"])
def test_entry_points_refuse_a_symbol_id(call):
    with pytest.raises(TypeError, match="^rho must be a CuspidalSymbol$"):
        call(odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS}))


def test_reduce_at_refuses_an_invalid_triple():
    t = make_triple(C0, [(r, 1), (r, 3), (r, 5)], {(r, 1): PLUS, (r, 3): PLUS})  # r:5 unsigned
    with pytest.raises(InvalidTripleError, match="missing single sign on r:5"):
        reduce_at(t, r, 1, 3)


def test_reduction_drops_size_by_two_and_keeps_validity():
    t = odd_triple(C0, [1, 3, 5, 7],
                   {1: PLUS, 3: PLUS, 5: MINUS, 7: MINUS})
    for red in subordinate_reductions(t):
        assert red.result.size == t.size - 2
        assert validate_triple(red.result) == []


# -- alternated type -----------------------------------------------------------


def test_empty_triple_is_alternated_over_empty_support():
    w = is_alternated(JordanTriple(C0))
    assert w is not None
    assert w.matchings == ()


def test_alternated_matching_follows_sort_order():
    t = odd_triple(C1, [3])
    w = is_alternated(t)
    assert w is not None
    assert w.matching_for(r) == ((3, 1),)


def test_all_minus_singles_still_give_a_plus_pair():
    t = make_triple(C0, [(q, 2), (q, 4)], {(q, 2): MINUS, (q, 4): MINUS})
    assert t.pair(q, 2, 4) == PLUS
    assert is_alternated(t) is None


def test_zero_extends_the_target_for_an_even_minimum():
    plus = make_triple(C0, [(q, 2)], {(q, 2): PLUS})
    minus = make_triple(C0, [(q, 2)], {(q, 2): MINUS})
    w = is_alternated(plus)
    assert w is not None and w.matching_for(q) == ((2, 0),)
    assert is_alternated(minus) is None


def test_support_blocks_must_be_consumed():
    # c1 carries a cuspidal block at r, so a triple without blocks at r
    # cannot match the target even though no pair breaks the rule
    assert is_alternated(JordanTriple(C1)) is None
    assert is_alternated(odd_triple(C1, [3])) is not None


# -- admissibility and dominance -------------------------------------------------


def test_alternated_means_empty_chain():
    t = odd_triple(C1, [3])
    chain = is_admissible(t)
    assert chain == ()
    assert chain is not None  # falsy but present


def test_one_step_admissibility():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS})
    chain = is_admissible(t)
    assert chain is not None and len(chain) == 1
    assert chain[0].result == JordanTriple(C0)


def test_blocked_triple_is_not_admissible():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: MINUS})
    assert t.pair(r, 1, 3) == MINUS
    assert is_admissible(t) is None


def test_admissibility_returns_the_canonical_chain():
    # q sorts before r, so q is peeled first; at the odd symbol r the
    # +1 pair with the minimal upper endpoint goes first
    t = make_triple(C0, [(q, 2), (q, 4)] + [(r, a) for a in (1, 3, 5, 7)],
                    {(q, 2): PLUS, (q, 4): PLUS,
                     (r, 1): PLUS, (r, 3): PLUS, (r, 5): MINUS, (r, 7): MINUS})
    reductions = is_admissible(t)
    chain = canonical_chain(t)
    assert [(red.rho, red.lower, red.upper) for red in reductions] == [
        (q, 2, 4), (r, 1, 3), (r, 5, 7)]
    assert [(s.rho, s.lower, s.upper) for s in reversed(chain.steps)] == [
        (red.rho, red.lower, red.upper) for red in reductions]
    assert reductions[-1].result == chain.base == JordanTriple(C0)
    assert is_admissible(t) == reductions


def test_dominates_examples():
    t = make_triple(C0, [(q, 2), (q, 4)], {(q, 2): PLUS, (q, 4): PLUS})
    bottom = JordanTriple(C0)
    assert dominates(t, t) == ()
    chain = dominates(t, bottom)
    assert chain is not None and len(chain) == 1
    assert dominates(bottom, t) is None
    with pytest.raises(ValueError, match="support"):
        dominates(t, JordanTriple(C1))
    # a target two steps down, off the first branch the search tries
    top = odd_triple(C0, [1, 3, 5, 7, 9], {a: PLUS for a in (1, 3, 5, 7, 9)})
    target = reduce_at(reduce_at(top, r, 5, 7), r, 3, 9)
    chain = dominates(top, target)
    assert [(red.lower, red.upper) for red in chain] == [(3, 5), (7, 9)]
    cur = top
    for red in chain:
        cur = reduce_at(cur, red.rho, red.lower, red.upper)
        assert cur == red.result
    assert cur == target


def test_dominates_refuses_a_value_that_is_no_triple():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS})
    for args in [(t, "x"), ("x", t)]:
        with pytest.raises(TypeError, match="^dominance compares JordanTriple objects$"):
            dominates(*args)


# -- extensions -----------------------------------------------------------------


def test_extension_pair_over_the_empty_triple():
    plus, minus = dominating_extensions(JordanTriple(C0), 2, 4, q)
    assert plus.single(q, 2) == PLUS and plus.single(q, 4) == PLUS
    assert minus.single(q, 2) == MINUS and minus.single(q, 4) == MINUS
    for ext in (plus, minus):
        assert ext.pair(q, 2, 4) == PLUS
        assert reduce_at(ext, q, 2, 4) == JordanTriple(C0)
        assert is_admissible(ext) is not None
    assert plus != minus


def test_extension_respects_the_bridge_product():
    t = odd_triple(C17, [1, 7], pairs={(1, 7): MINUS})
    plus, minus = dominating_extensions(t, 3, 5, r)
    for ext, free in ((plus, PLUS), (minus, MINUS)):
        assert ext.pair(r, 3, 5) == PLUS
        assert ext.pair(r, 1, 3) == free
        # condition (3): the old pair value is the product across the gap
        assert ext.pair(r, 1, 3) * ext.pair(r, 5, 7) == MINUS
        assert reduce_at(ext, r, 3, 5) == t
    assert plus != minus


def test_extension_above_all_blocks_uses_the_crossing_pair():
    t = odd_triple(C17, [1, 7], pairs={(1, 7): MINUS})
    plus, minus = dominating_extensions(t, 9, 11, r)
    assert plus.pair(r, 7, 9) == PLUS and minus.pair(r, 7, 9) == MINUS
    for ext in (plus, minus):
        assert ext.pair(r, 9, 11) == PLUS
        assert reduce_at(ext, r, 9, 11) == t


def test_extension_guards():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS})
    with pytest.raises(GapError):
        dominating_extensions(t, 1, 5, r)  # 3 sits inside [1,5]
    with pytest.raises(ValueError):
        dominating_extensions(t, 5, 5, r)
    with pytest.raises(ValueError):
        dominating_extensions(t, -1, 5, r)
    with pytest.raises(ValueError):
        dominating_extensions(t, 2, 4, r)  # wrong parity for r
    bad = odd_triple(C0, [1, 3], {1: PLUS, 3: MINUS})
    with pytest.raises(NotAdmissibleError):
        dominating_extensions(bad, 5, 7, r)


def test_extensions_reject_bool_blocks():
    with pytest.raises(ValueError, match="not an integer"):
        dominating_extensions(JordanTriple(C0), True, 3, r)


def test_linking_sign_variants():
    singles = odd_triple(C0, [1, 3], {1: MINUS, 3: MINUS})
    assert linking_sign(singles, r, 1, 3) == MINUS
    pairs = odd_triple(C17, [1, 3, 5, 7],
                       pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS})
    assert linking_sign(pairs, r, 3, 5) == MINUS  # toward the predecessor
    with pytest.raises(ValueError, match="only pairs carrying \\+1 can be removed"):
        linking_sign(pairs, r, 1, 3)  # the pair carries -1
    lowest = odd_triple(C17, [1, 3, 5, 7],
                        pairs={(1, 3): PLUS, (3, 5): MINUS, (5, 7): MINUS})
    assert linking_sign(lowest, r, 1, 3) == MINUS  # no predecessor: successor side
    lonely = odd_triple(C17, [5, 7], pairs={(5, 7): PLUS})
    with pytest.raises(NotAdmissibleError):
        linking_sign(lonely, r, 5, 7)


def test_linking_sign_refuses_a_foreign_pair():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS})
    for rho, lower, upper in ((r, 1, 5), (r, 5, 7), (q, 2, 4)):
        with pytest.raises(ValueError, match=f"\\({lower},{upper}\\) is not an adjacent pair"):
            linking_sign(t, rho, lower, upper)
    with pytest.raises(InvalidTripleError, match="missing single sign on r:3"):
        linking_sign(odd_triple(C0, [1, 3], {1: PLUS}), r, 1, 3)


# -- serialization ---------------------------------------------------------------


def test_triple_text_layout():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: MINUS})
    assert triple_text(t) == (
        "cusp=c0 ; jord= r:1 r:3 ; single= r:1:+ r:3:- ; pair= r:1:3:-")
    assert triple_text(JordanTriple(C0)) == "cusp=c0 ; jord= ; single= ; pair="


def test_triple_text_round_trip():
    t = make_triple(C17,
                    [(r, 1), (r, 3), (q, 2), (q, 4)],
                    {(q, 2): PLUS, (q, 4): MINUS},
                    {(r, 1, 3): MINUS})
    again = parse_triple(triple_text(t), C17, SYMBOLS)
    assert again == t


@pytest.mark.parametrize("cusp, jord, singles, pairs, text", [
    (C17, [(r, 3), (r, 1), (q, 2)], {(r, 5): MINUS, (r, 3): PLUS, (q, 2): MINUS}, {(r, 1, 3): MINUS},
     "cusp=c17 ; jord= q:2 r:1 r:3 ; single= q:2:- r:3:+ r:5:- ; pair= r:1:3:-"),
    (C0, [(r, 5), (r, 3), (r, 1)], {(r, 1): PLUS, (r, 3): MINUS, (r, 5): MINUS}, {(r, 1, 5): PLUS},
     "cusp=c0 ; jord= r:1 r:3 r:5 ; single= r:1:+ r:3:- r:5:- ; pair= r:1:3:- r:1:5:+ r:3:5:+"),
    (C0, [(q, 2), (q, 4), (r, 1)], {(q, 2): PLUS, (q, 4): PLUS, (r, 1): MINUS}, {(q, 2, 4): MINUS},
     "cusp=c0 ; jord= q:2 q:4 r:1 ; single= q:2:+ q:4:+ r:1:- ; pair= q:2:4:-"),
    (C0, [(r, 4), (r, 1), (q, 6)], {(r, 4): PLUS, (r, 1): MINUS}, {},
     "cusp=c0 ; jord= q:6 r:1 r:4 ; single= r:1:- r:4:+ ; pair= r:1:4:-"),
], ids=["off-domain single", "non-adjacent pair", "product-rule break", "wrong-parity block"])
def test_the_text_of_invalid_input_is_pinned(cusp, jord, singles, pairs, text):
    # the items as given, each section in symbol and block order, with the pairs the singles imply
    t = JordanTriple(cusp, jord, singles, pairs)
    assert t.rows is None and triple_text(t) == str(t) == text


_SYMBOL = st.sampled_from([r, q])
_BLOCK = st.integers(-1, 8)
_SIGN = st.sampled_from([PLUS, MINUS])


@settings(max_examples=300, deadline=None)
@given(cusp=st.sampled_from([C0, C17]),
       jord=st.lists(st.tuples(_SYMBOL, _BLOCK), max_size=6),
       singles=st.dictionaries(st.tuples(_SYMBOL, _BLOCK), _SIGN, max_size=4),
       pairs=st.dictionaries(st.tuples(_SYMBOL, _BLOCK, _BLOCK), _SIGN, max_size=4))
def test_triple_text_inverts_for_every_constructible_triple(cusp, jord, singles, pairs):
    # valid or not: parity, domain and product-rule violations all survive
    t = JordanTriple(cusp, jord, singles, pairs)
    assert parse_triple(triple_text(t), cusp, SYMBOLS) == t


@pytest.mark.parametrize("section,item,why", [
    ("jord", "r", "expected rho:a"),
    ("jord", "r:x", "a 'x' is not an integer"),
    ("jord", "zz:1", "unknown symbol 'zz'"),
    ("single", "r:1", "expected rho:a:sign"),
    ("single", "r:x:+", "a 'x' is not an integer"),
    ("single", "r:1:*", "not a sign: '*'"),
    ("pair", "r:1:3", "expected rho:lo:hi:sign"),
    ("pair", "r:1:x:+", "hi 'x' is not an integer"),
    ("pair", "r:1:3:*", "not a sign: '*'"),
])
def test_parse_triple_quotes_a_malformed_item_and_its_section(section, item, why):
    parts = {"jord": " r:1 r:3", "single": " r:1:+ r:3:+", "pair": " r:1:3:+"}
    parts[section] += f" {item}"
    text = "cusp=c0 ; " + " ; ".join(f"{name}={body}" for name, body in parts.items())
    with pytest.raises(ValueError, match=f"^{re.escape(f'{section} item {item!r}: {why}')}$"):
        parse_triple(text, C0, SYMBOLS)


_INTEGER_FIELDS = {"jord": (1,), "single": (1,), "pair": (1, 2), "steps": (1, 2)}
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# built at the first draw, so a fault in canonical_chain fails the one test that draws it
_CHAIN_TEXTS = st.deferred(lambda: st.sampled_from(
    [chain_text(canonical_chain(t)) for t in enumerate_admissible(C17, [r, q], max_a=7)]))


def _respellings(n: int) -> list:
    """Texts other than str(n) that int() reads as n: a plus sign, a
    leading zero, an underscore, non-ASCII digits, and -0 for 0."""
    sign, digits = "-" if n < 0 else "", str(abs(n))
    out = [f"{sign}0{digits}", f"{sign}0_{digits}", sign + digits.translate(_ARABIC_INDIC)]
    if n >= 0:
        out.append(f"+{digits}")
    if n == 0:
        out.append("-0")
    return out


def _integer_fields(text: str) -> list:
    """(token index, field index, section) of each integer field of a
    canonical triple or chain text, whose tokens are split at spaces."""
    section, out = None, []
    for at, token in enumerate(text.split(" ")):
        if "=" in token:
            section = token.split("=")[0]
        elif token != ";":
            out.extend((at, field, section) for field in _INTEGER_FIELDS[section])
    return out


@settings(max_examples=300, deadline=None)
@given(cusp=st.sampled_from([C0, C17]),
       jord=st.lists(st.tuples(_SYMBOL, _BLOCK), max_size=6),
       singles=st.dictionaries(st.tuples(_SYMBOL, _BLOCK), _SIGN, max_size=4),
       pairs=st.dictionaries(st.tuples(_SYMBOL, _BLOCK, _BLOCK), _SIGN, max_size=4),
       chain=_CHAIN_TEXTS, of_chain=st.booleans(), data=st.data())
def test_an_integer_field_has_one_spelling(cusp, jord, singles, pairs, chain, of_chain, data):
    # respell one integer field of a canonical text in a way int() reads;
    # the parse names the item, as it reads it, and refuses it
    if of_chain:
        text, parse = chain, lambda text: parse_chain(text, C17, SYMBOLS)
    else:
        text = triple_text(JordanTriple(cusp, jord, singles, pairs))
        parse = lambda text: parse_triple(text, cusp, SYMBOLS)
    fields = _integer_fields(text)
    if not fields:
        return
    at, field, section = data.draw(st.sampled_from(fields))
    tokens = text.split(" ")
    item = tokens[at].rstrip("}")
    parts = item.split(":")
    n = int(parts[field])
    parts[field] = data.draw(st.sampled_from(_respellings(n)))
    assert int(parts[field]) == n
    bad = ":".join(parts)
    tokens[at] = bad + tokens[at][len(item):]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{section} item {bad!r}: ')}"):
        parse(" ".join(tokens))


def test_parse_triple_rejects_malformed_records():
    with pytest.raises(ValueError):
        parse_triple("cusp=c0 ; jord=", C0, SYMBOLS)
    with pytest.raises(ValueError, match="^expected section 'jord='$"):
        parse_triple("cusp=c0 ; jrd= ; single= ; pair=", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_triple("cusp=cX ; jord= ; single= ; pair=", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_triple("cusp=c0 ; jord= zz:1 ; single= ; pair=", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_triple("cusp=c0 ; jord= r:1 ; single= r:1:* ; pair=", C0, SYMBOLS)
