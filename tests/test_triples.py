import pytest

from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    CuspidalSupport,
    CuspidalSymbol,
    GapError,
    InvalidTripleError,
    JordanTriple,
    NotAdmissibleError,
    canonical_chain,
    dominates,
    dominating_extensions,
    is_admissible,
    is_alternated,
    linking_sign,
    make_triple,
    parse_triple,
    reduce_at,
    singles_defined,
    subordinate_reductions,
    triple_text,
    validate_triple,
)

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0")
C1 = CuspidalSupport("c1", {r: {1}})
C17 = CuspidalSupport("c17", {r: {1, 7}})
SYMBOLS = {"r": r, "q": q}


def odd_triple(cusp, blocks, singles=None, pairs=None):
    return make_triple(cusp,
                       [(r, a) for a in blocks],
                       {(r, a): v for a, v in (singles or {}).items()},
                       {(r, lo, hi): v for (lo, hi), v in (pairs or {}).items()})


# -- supports and sign domains ----------------------------------------------


def test_support_stores_blocks_per_symbol():
    assert C17.jord_of(r) == {1, 7}
    assert C17.jord_of(q) == frozenset()
    assert C17.symbols == (r,)
    with pytest.raises(ValueError):
        CuspidalSupport("x", {r: {2}})  # wrong parity
    with pytest.raises(ValueError):
        CuspidalSupport("x", {r: {0}})


def test_support_equality_is_content_based():
    assert CuspidalSupport("c17", {r: {7, 1}}) == C17
    assert CuspidalSupport("c17", {r: {1, 3}}) != C17


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


def test_linking_sign_variants():
    singles = odd_triple(C0, [1, 3], {1: MINUS, 3: MINUS})
    assert linking_sign(singles, r, 1, 3) == MINUS
    pairs = odd_triple(C17, [1, 3, 5, 7],
                       pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS})
    assert linking_sign(pairs, r, 3, 5) == MINUS  # toward the predecessor
    assert linking_sign(pairs, r, 1, 3) == PLUS   # no predecessor: successor side
    lonely = odd_triple(C17, [5, 7], pairs={(5, 7): PLUS})
    with pytest.raises(NotAdmissibleError):
        linking_sign(lonely, r, 5, 7)


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


def test_parse_triple_rejects_malformed_records():
    with pytest.raises(ValueError):
        parse_triple("cusp=c0 ; jord=", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_triple("cusp=cX ; jord= ; single= ; pair=", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_triple("cusp=c0 ; jord= zz:1 ; single= ; pair=", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_triple("cusp=c0 ; jord= r:1 ; single= r:1:* ; pair=", C0, SYMBOLS)
