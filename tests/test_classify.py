import pytest

import segtriples.classify
import segtriples.triples
from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    ChainStep,
    CuspidalSupport,
    CuspidalSymbol,
    InvalidChainError,
    JordanTriple,
    NotAdmissibleError,
    ReductionChain,
    canonical_chain,
    chain_text,
    chain_violations,
    count_by_jord,
    dominance_edges,
    enumerate_admissible,
    is_admissible,
    make_triple,
    parse_chain,
    realize_chain,
    triple_text,
)
from helpers import condition3_checks

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


# -- canonical chains ------------------------------------------------------


def test_canonical_chain_of_an_alternated_triple_is_empty():
    t = odd_triple(C1, [3])
    chain = canonical_chain(t)
    assert chain.base == t and chain.steps == ()


def test_canonical_chain_peels_top_down_and_reports_base_up():
    t = odd_triple(C0, [1, 3, 5, 7],
                   {1: PLUS, 3: PLUS, 5: MINUS, 7: MINUS})
    chain = canonical_chain(t)
    assert chain.base == JordanTriple(C0)
    assert [(s.lower, s.upper, s.sign) for s in chain.steps] == [
        (5, 7, MINUS), (1, 3, PLUS)]


def test_canonical_chain_on_an_even_symbol():
    t = make_triple(C0, [(q, a) for a in (2, 4, 6, 8)],
                    {(q, 2): PLUS, (q, 4): PLUS, (q, 6): MINUS, (q, 8): MINUS})
    chain = canonical_chain(t)
    # even symbols peel the highest +1 pair first, so base-up order has
    # strictly increasing lower endpoints
    lowers = [s.lower for s in chain.steps]
    assert lowers == sorted(lowers)


def test_canonical_chain_rejects_non_admissible_input():
    t = odd_triple(C0, [1], {1: PLUS})
    with pytest.raises(NotAdmissibleError):
        canonical_chain(t)


def test_realize_inverts_canonical():
    t = odd_triple(C17, [1, 3, 5, 7],
                   pairs={(1, 3): PLUS, (3, 5): MINUS, (5, 7): MINUS})
    chain = canonical_chain(t)
    assert realize_chain(chain) == t


def test_chain_length_matches_block_count():
    t = odd_triple(C0, [1, 3, 5, 7],
                   {1: PLUS, 3: PLUS, 5: MINUS, 7: MINUS})
    chain = canonical_chain(t)
    assert 2 * len(chain.steps) == t.size - chain.base.size


# -- chain validation --------------------------------------------------------


def test_chain_violations_for_a_good_chain():
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS})
    assert chain_violations(canonical_chain(t)) == []


def test_chain_violations_flag_bad_base():
    bad = JordanTriple(C0, [(r, 4)], {(r, 4): PLUS})
    chain = ReductionChain(bad, ())
    assert any("base:" in p for p in chain_violations(chain))
    # a valid but non-alternated base is also rejected
    t = odd_triple(C0, [1, 3], {1: PLUS, 3: PLUS})
    assert any("alternated" in p
               for p in chain_violations(ReductionChain(t, ())))


def test_chain_violations_flag_bad_steps():
    base = JordanTriple(C0)
    probs = chain_violations(ReductionChain(base, (ChainStep(r, 3, 1, PLUS),)))
    assert any("lower < upper" in p for p in probs)
    probs = chain_violations(ReductionChain(base, (ChainStep(r, 1, 3, 0),)))
    assert any("sign" in p for p in probs)
    probs = chain_violations(ReductionChain(base, (ChainStep(r, 2, 4, PLUS),)))
    assert any("parity" in p for p in probs)
    probs = chain_violations(ReductionChain(base, (ChainStep(r, 1.0, 3, PLUS),)))
    assert any("integers" in p for p in probs)


def test_chain_violations_reject_bool_endpoints():
    # realize_chain inserts endpoints as given, so True would print as a block
    probs = chain_violations(ReductionChain(JordanTriple(C0), (ChainStep(r, True, 3, PLUS),)))
    assert any("integers" in p for p in probs)


def test_chain_ordering_invariants():
    base = JordanTriple(C0)
    # odd symbols: upper endpoints must strictly decrease base-up
    rising = (ChainStep(r, 1, 3, PLUS), ChainStep(r, 5, 7, PLUS))
    assert any("strictly decrease" in p
               for p in chain_violations(ReductionChain(base, rising)))
    falling = (ChainStep(r, 5, 7, MINUS), ChainStep(r, 1, 3, PLUS))
    assert chain_violations(ReductionChain(base, falling)) == []
    # even symbols: lower endpoints must strictly increase base-up
    bad = (ChainStep(q, 6, 8, PLUS), ChainStep(q, 2, 4, PLUS))
    assert any("strictly increase" in p
               for p in chain_violations(ReductionChain(base, bad)))


def test_realize_validates_first():
    bad = ReductionChain(JordanTriple(C0), (ChainStep(r, 3, 1, PLUS),))
    with pytest.raises(InvalidChainError):
        realize_chain(bad)


def test_round_trip_validates_once_per_boundary(monkeypatch):
    # canonical_chain validates the triple, realize_chain the chain's base
    calls = []
    validate = segtriples.triples.validate_triple

    def counted(t):
        calls.append(t)
        return validate(t)

    monkeypatch.setattr(segtriples.triples, "validate_triple", counted)
    monkeypatch.setattr(segtriples.classify, "validate_triple", counted)
    t = odd_triple(C17, [1, 3, 5, 7, 9, 11],
                   pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS,
                          (7, 9): PLUS, (9, 11): MINUS})
    chain = canonical_chain(t)
    assert chain.steps and realize_chain(chain) == t
    assert calls == [t, chain.base]


def test_condition3_replay_on_a_sample_chain():
    t = odd_triple(C17, [1, 3, 5, 7, 9, 11],
                   pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS,
                          (7, 9): PLUS, (9, 11): MINUS})
    chain = canonical_chain(t)
    assert realize_chain(chain) == t
    assert condition3_checks(t, chain) >= 1


# -- serialization -----------------------------------------------------------


def test_chain_text_round_trip():
    t = odd_triple(C0, [1, 3, 5, 7],
                   {1: PLUS, 3: PLUS, 5: MINUS, 7: MINUS})
    chain = canonical_chain(t)
    text = chain_text(chain)
    assert text == ("base={cusp=c0 ; jord= ; single= ; pair=} ; "
                    "steps= r:5:7:- r:1:3:+")
    assert parse_chain(text, C0, SYMBOLS) == chain
    assert str(chain) == text


def test_parse_chain_rejects_malformed_records():
    with pytest.raises(ValueError):
        parse_chain("steps= r:1:3:+", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_chain("base={cusp=c0 ; jord= ; single= ; pair=", C0, SYMBOLS)
    with pytest.raises(ValueError, match="missing steps section"):
        parse_chain("base={cusp=c0 ; jord= ; single= ; pair=}", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_chain("base={cusp=c0 ; jord= ; single= ; pair=} ; "
                    "steps= zz:1:3:+", C0, SYMBOLS)
    with pytest.raises(ValueError):
        parse_chain("base={cusp=c0 ; jord= ; single= ; pair=} ; "
                    "steps= r:1:3:*", C0, SYMBOLS)


# -- enumeration ---------------------------------------------------------------


def test_enumeration_over_the_empty_support():
    got = [triple_text(t) for t in enumerate_admissible(C0, [r], max_a=3)]
    assert got == [
        "cusp=c0 ; jord= ; single= ; pair=",
        "cusp=c0 ; jord= r:1 r:3 ; single= r:1:+ r:3:+ ; pair= r:1:3:+",
        "cusp=c0 ; jord= r:1 r:3 ; single= r:1:- r:3:- ; pair= r:1:3:+",
    ]
    # the symbol list is a set: a repeated symbol counts once
    assert enumerate_admissible(C0, [r, r], max_a=5) == enumerate_admissible(C0, [r], max_a=5)


def test_enumeration_with_cuspidal_blocks():
    got = [triple_text(t) for t in enumerate_admissible(C1, [r], max_a=3)]
    assert got == [
        "cusp=c1 ; jord= r:1 ; single= ; pair=",
        "cusp=c1 ; jord= r:3 ; single= ; pair=",
    ]


def test_enumeration_respects_max_jord():
    all_sets = enumerate_admissible(C0, [r], max_a=7)
    capped = enumerate_admissible(C0, [r], max_a=7, max_jord=2)
    assert {t.size for t in capped} <= {0, 2}
    assert set(t for t in capped) < set(all_sets)


def test_enumeration_with_explicit_block_sets():
    got = enumerate_admissible(C0, [q], jord_sets={"q": [[], [2, 4]]})
    assert len(got) == 3
    with pytest.raises(ValueError):
        enumerate_admissible(C0, [q], jord_sets={"q": [[2, 2]]})
    with pytest.raises(ValueError):
        enumerate_admissible(C0, [q], jord_sets={"q": [[3]]})
    with pytest.raises(ValueError):
        enumerate_admissible(C0, [q])  # no bound at all
    for rho, bad in ((r, [[1, 3.7]]), (r, [[True, 3]]), (q, [[0, 2]])):
        with pytest.raises(ValueError):
            enumerate_admissible(C0, [rho], jord_sets={rho.id: bad})
    with pytest.raises(ValueError):
        count_by_jord(C0, {q: {0, 2}})


def test_enumeration_results_are_admissible_and_sorted():
    got = enumerate_admissible(C0, [r, q], max_a=4)
    texts = [triple_text(t) for t in got]
    assert texts == sorted(texts)
    assert all(is_admissible(t) is not None for t in got)


def test_count_by_jord():
    assert count_by_jord(C0, {q: {2, 4}}) == 2
    assert count_by_jord(C0, {q: {2}}) == 1
    assert count_by_jord(C0, {r: {1, 3}}) == 2
    assert count_by_jord(C17, {r: {1, 7}}) == 1
    assert count_by_jord(C0, {}) == 1


def test_count_by_jord_multiplies_over_symbols():
    single_r = count_by_jord(C0, {r: {1, 3}})
    single_q = count_by_jord(C0, {q: {2, 4}})
    both = count_by_jord(C0, {r: {1, 3}, q: {2, 4}})
    assert both == single_r * single_q


def test_dominance_edges():
    nodes = enumerate_admissible(C0, [q], jord_sets={"q": [[], [2, 4]]})
    edges = dominance_edges(nodes)
    texts = {triple_text(t) for t in nodes}
    assert len(edges) == 2
    for parent, child in edges:
        assert parent in texts and child in texts
        assert "q:2 q:4" in parent and "jord= ;" in child


def test_round_trip_across_an_enumeration():
    seen = {}
    for t in enumerate_admissible(C17, [r], max_a=9, max_jord=4):
        chain = canonical_chain(t)
        assert realize_chain(chain) == t
        key = chain_text(chain)
        assert key not in seen, f"chain collision with {seen[key]}"
        seen[key] = triple_text(t)
