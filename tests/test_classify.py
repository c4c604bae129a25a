import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import segtriples.classify
import segtriples.triples
from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    AlternatedWitness,
    ChainStep,
    CuspidalSupport,
    CuspidalSymbol,
    GapError,
    InvalidChainError,
    JordanTriple,
    NotAdmissibleError,
    Reduction,
    ReductionChain,
    canonical_chain,
    chain_text,
    chain_violations,
    count_by_jord,
    dominance_edges,
    dominates,
    dominating_extensions,
    enumerate_admissible,
    is_admissible,
    is_alternated,
    linking_sign,
    make_triple,
    parse_chain,
    realize_chain,
    reduce_at,
    subordinate_reductions,
    triple_text,
)
from segtriples.algebra import SizeLimitError
from helpers import condition3_checks, odd_triple, run_cli

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0")
C1 = CuspidalSupport("c1", {r: {1}})
C17 = CuspidalSupport("c17", {r: {1, 7}})
SYMBOLS = {"r": r, "q": q}


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
    assert any("block 1.0 is not an integer" in p for p in probs)


def test_chain_violations_reject_bool_endpoints():
    # realize_chain inserts endpoints as given, so True would print as a block
    probs = chain_violations(ReductionChain(JordanTriple(C0), (ChainStep(r, True, 3, PLUS),)))
    assert any("block True is not an integer" in p for p in probs)


def test_chain_ordering_skips_steps_with_rejected_pairs():
    # a step whose pair is rejected is reported, not compared with its neighbours
    chain = ReductionChain(JordanTriple(C0), (ChainStep(r, 5, "x", PLUS), ChainStep(r, 1, 3, PLUS)))
    assert chain_violations(chain) == ["step 0: block 'x' is not an integer"]
    with pytest.raises(InvalidChainError, match="block 'x' is not an integer"):
        realize_chain(chain)


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


@pytest.fixture
def validations(monkeypatch):
    """The triples ``validate_triple`` is called on, in call order."""
    calls = []
    validate = segtriples.triples.validate_triple

    def counted(t):
        calls.append(t)
        return validate(t)

    monkeypatch.setattr(segtriples.triples, "validate_triple", counted)
    monkeypatch.setattr(segtriples.classify, "validate_triple", counted)
    return calls


def user_triple():
    """A fresh, unmarked admissible triple with a two-step canonical chain."""
    return odd_triple(C17, [1, 3, 5, 7, 9, 11],
                      pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS,
                             (7, 9): PLUS, (9, 11): MINUS})


def test_round_trip_validates_once_per_boundary(validations):
    # canonical_chain validates the triple; realize_chain trusts the marked chain it built
    t = user_triple()
    chain = canonical_chain(t)
    assert chain.steps and realize_chain(chain) == t
    assert validations == [t]


# each call gets fresh user-built triples and returns them with its result
VALIDATING_CALLS = {
    "is_admissible": lambda t, u: ((t,), is_admissible(t)),
    "canonical_chain": lambda t, u: ((t,), canonical_chain(t)),
    "realize_chain": lambda t, u: ((u.base,), realize_chain(u)),
    "subordinate_reductions": lambda t, u: ((t,), subordinate_reductions(t)),
    "is_alternated": lambda t, u: ((u.base,), is_alternated(u.base)),
    "reduce_at": lambda t, u: ((t,), reduce_at(t, r, 3, 5)),
    "linking_sign": lambda t, u: ((t,), linking_sign(t, r, 3, 5)),
    "dominates": lambda t, u: ((t, u.base), dominates(t, u.base)),
    "dominating_extensions": lambda t, u: ((t,), dominating_extensions(t, 13, 15, r)),
}


@pytest.mark.parametrize("name", VALIDATING_CALLS)
def test_each_call_validates_a_user_built_triple_at_most_once(name, validations):
    t = user_triple()
    # a chain parsed from text has a user-built base and carries no mark
    u = parse_chain(chain_text(canonical_chain(user_triple())), C17, SYMBOLS)
    validations.clear()
    given, result = VALIDATING_CALLS[name](t, u)
    assert result is not None
    assert len(validations) <= len(given)
    assert all(sum(v is g for v in validations) <= 1 for g in given)
    assert all(any(v is g for g in given) for v in validations)


def test_a_query_validates_a_user_built_triple_once(validations):
    t = user_triple()
    assert segtriples.triples.validate_triple(t) == []
    assert is_admissible(t) is not None
    assert realize_chain(canonical_chain(t)) == t
    assert validations == [t]


def test_a_chain_over_a_list_of_steps_is_checked_at_every_call():
    # a list can change after a check passed, so the check does not mark such a chain
    chain = canonical_chain(user_triple())
    steps = list(chain.steps)
    listed = ReductionChain(chain.base, steps)
    assert realize_chain(listed) == user_triple()
    steps.append(ChainStep(r, 3, 1, PLUS))
    with pytest.raises(InvalidChainError, match="need lower < upper"):
        realize_chain(listed)


def test_a_marked_chain_is_an_unmarked_chain():
    chain = canonical_chain(user_triple())
    for again in (parse_chain(chain_text(chain), C17, SYMBOLS),
                  ReductionChain(chain.base, chain.steps)):
        assert chain._valid and not again._valid
        assert chain == again and hash(chain) == hash(again)
        assert repr(chain) == repr(again) and str(chain) == str(again)


def test_condition3_replay_on_a_sample_chain():
    t = odd_triple(C17, [1, 3, 5, 7, 9, 11],
                   pairs={(1, 3): MINUS, (3, 5): PLUS, (5, 7): MINUS,
                          (7, 9): PLUS, (9, 11): MINUS})
    chain = canonical_chain(t)
    assert realize_chain(chain) == t
    assert condition3_checks(t, chain) >= 1


# -- records -----------------------------------------------------------------


def fresh(cls):
    """Arguments for one record, each built anew, so two calls give
    equal values that share no object."""
    rho, empty = CuspidalSymbol("r"), JordanTriple(CuspidalSupport("c0"))
    return {Reduction: (rho, 1, 3, empty),
            AlternatedWitness: (((rho, ((1, 1),)),),),
            ChainStep: (rho, 1, 3, PLUS),
            ReductionChain: (empty, (ChainStep(rho, 1, 3, PLUS),))}[cls]


SYMBOL_R = "CuspidalSymbol('r', rank=1, parity='odd')"
EMPTY_C0 = "JordanTriple<cusp=c0 ; jord= ; single= ; pair=>"
STEP = f"ChainStep(rho={SYMBOL_R}, lower=1, upper=3, sign=1)"
RECORDS = [
    (Reduction, ("rho", "lower", "upper", "result"),
     f"Reduction(rho={SYMBOL_R}, lower=1, upper=3, result={EMPTY_C0})"),
    (AlternatedWitness, ("matchings",), f"AlternatedWitness(matchings=(({SYMBOL_R}, ((1, 1),)),))"),
    (ChainStep, ("rho", "lower", "upper", "sign"), STEP),
    (ReductionChain, ("base", "steps"), f"ReductionChain(base={EMPTY_C0}, steps=({STEP},))"),
]


@pytest.mark.parametrize("cls,names,text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, names, text):
    args = fresh(cls)
    value = cls(*args)
    assert repr(value) == text
    keyed = cls(**dict(zip(names, fresh(cls))))
    assert keyed == value and hash(keyed) == hash(value)
    for wrong in (args[:-1], args + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
    # never equal to another record class, or a tuple, holding the same values
    twin = type("Twin", (cls,), {"__slots__": ()})
    for other in (twin(*args), args):
        assert value != other and other != value
    assert Reduction(*fresh(ChainStep)) != ChainStep(*fresh(ChainStep))


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


@pytest.mark.parametrize("sign", [0, 5, True])
def test_chain_text_of_a_bad_step_sign_does_not_parse(sign):
    # printed as '-' or '+', the step would read back as a different, valid chain
    chain = ReductionChain(JordanTriple(C0), (ChainStep(r, 1, 3, sign),))
    text = chain_text(chain)
    assert text.endswith(f"steps= r:1:3:{sign!r}")
    with pytest.raises(ValueError, match="not a sign"):
        parse_chain(text, C0, SYMBOLS)


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
    # the window itself: a key naming no listed symbol, and bounds that
    # are not nonnegative integers
    for window, fragment in (({"max_a": 3, "jord_sets": {"rr": [[1]]}},
                              "^jord_sets names 'rr' outside the symbol list$"),
                             ({"max_a": 3, "max_jord": -1}, "^max_jord must be a nonnegative integer"),
                             ({"max_a": 3.5}, "^max_a must be a nonnegative integer")):
        with pytest.raises(ValueError, match=fragment):
            enumerate_admissible(C0, [r], **window)
    for rho, bad in ((r, [[1, 3.7]]), (r, [[True, 3]]), (q, [[0, 2]])):
        with pytest.raises(ValueError):
            enumerate_admissible(C0, [rho], jord_sets={rho.id: bad})
    with pytest.raises(ValueError):
        count_by_jord(C0, {q: {0, 2}})


def test_enumeration_refuses_an_oversized_window():
    # 3,139 x 2,123 rows survive the peel; no triple is built
    assert segtriples.classify.MAX_TRIPLES == 1_000_000
    with pytest.raises(ValueError, match="^the window holds 6664097 admissible triples, "
                                         "over the limit of 1000000$"):
        enumerate_admissible(C0, [r, q], max_a=17)


@pytest.fixture
def row_work(monkeypatch):
    """A list that grows by one at each call of ``triples._admissible_rows`` or ``triples._peel``."""
    calls = []
    admissible_rows, peel = segtriples.triples._admissible_rows, segtriples.triples._peel

    def counted_rows(*args):
        calls.append("_admissible_rows")
        return admissible_rows(*args)

    def counted_peel(*args):
        calls.append("_peel")
        return peel(*args)

    monkeypatch.setattr(segtriples.triples, "_admissible_rows", counted_rows)
    monkeypatch.setattr(segtriples.classify, "_admissible_rows", counted_rows)
    monkeypatch.setattr(segtriples.triples, "_peel", counted_peel)
    return calls


def test_a_refusal_builds_and_peels_no_row(row_work):
    # 25,653 x 17,303 triples: counted from the admitted end points alone
    with pytest.raises(SizeLimitError, match="^the window holds 443873859 admissible triples, "
                                             "over the limit of 1000000$"):
        enumerate_admissible(C0, [r, q], max_a=21)
    # C(24, 12) rows on one explicit set of 24 blocks
    with pytest.raises(SizeLimitError, match="^the window holds 2704156 admissible triples"):
        enumerate_admissible(C0, [q], jord_sets={"q": [range(2, 50, 2)]})
    assert count_by_jord(C0, {q: range(2, 402, 2)}) == math.comb(200, 100)
    assert row_work == []
    # a window inside the limit builds its rows without peeling any
    assert len(enumerate_admissible(C0, [r, q], max_a=7)) > 0
    assert "_admissible_rows" in row_work and "_peel" not in row_work


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
    assert count_by_jord(C17, {q: {2, 4}}) == 0  # the support has blocks at r, left out


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


def test_dominance_edges_read_any_iterable_of_triples_once():
    nodes = enumerate_admissible(C0, [q], jord_sets={"q": [[], [2, 4]]})
    edges = dominance_edges(nodes)
    assert len(edges) == 2
    assert dominance_edges(tuple(nodes)) == edges
    assert dominance_edges(iter(nodes)) == edges
    # a mapping is read for its keys only; the texts come from the triples
    assert dominance_edges(dict.fromkeys(nodes, "stale")) == edges


# -- the enumeration's kept texts --------------------------------------------


@pytest.mark.parametrize("cusp,symbols,max_a,count", [
    (C0, [r, q], 11, 13_536),  # two-digit blocks: r:11 sorts before r:3
    (C17, [r], 13, 266),
])
def test_enumerated_triples_keep_their_canonical_text(cusp, symbols, max_a, count):
    got = enumerate_admissible(cusp, symbols, max_a=max_a)
    assert len(got) == count
    texts = [triple_text(t) for t in got]
    assert texts == sorted(texts)
    for t, text in zip(got, texts):
        fresh = JordanTriple._of_rows(t.cusp, t.rows)
        assert t._text == text and fresh._text is None
        assert text == triple_text(fresh)


def test_a_kept_text_takes_no_part_in_equality_hash_or_repr():
    t = enumerate_admissible(C0, [r], max_a=5)[-1]
    fresh = JordanTriple._of_rows(t.cusp, t.rows)
    assert t._text is not None
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    # a step's result is built from rows and renders afresh
    red = subordinate_reductions(t)[0]
    assert red.result._text is None


@pytest.fixture
def row_items_calls(monkeypatch):
    """A list that grows by one at each call of ``triples._row_items``."""
    calls = []
    row_items = segtriples.triples._row_items

    def counted(cusp, rows):
        calls.append(rows)
        return row_items(cusp, rows)

    monkeypatch.setattr(segtriples.triples, "_row_items", counted)
    monkeypatch.setattr(segtriples.classify, "_row_items", counted)
    return calls


def test_enumeration_writes_each_surviving_row_once(row_items_calls, tmp_path):
    per_symbol = [len(enumerate_admissible(C0, [rho], max_a=7)) for rho in (q, r)]
    row_items_calls.clear()
    got = enumerate_admissible(C0, [r, q], max_a=7)
    assert len(got) == per_symbol[0] * per_symbol[1]
    assert len(row_items_calls) == sum(per_symbol) < len(got)
    config = tmp_path / "window.json"
    config.write_text(json.dumps({
        "symbols": [{"id": "r", "rank": 1, "parity": "odd"}, {"id": "q", "rank": 2, "parity": "even"}],
        "supports": [{"id": "c0"}],
        "bounds": {"support": "c0", "symbols": ["r", "q"], "max_a": 7}}))
    for command in ("enumerate", "dominance-dag"):
        row_items_calls.clear()
        code, out, err = run_cli([command, "--config", str(config)])
        assert code == 0, err
        assert out.count("cusp=c0") >= len(got)
        assert len(row_items_calls) <= sum(per_symbol)
    row_items_calls.clear()
    with pytest.raises(ValueError, match="over the limit"):
        enumerate_admissible(C0, [r, q], max_a=17)
    assert row_items_calls == []


def test_round_trip_across_an_enumeration():
    seen = {}
    for t in enumerate_admissible(C17, [r], max_a=9, max_jord=4):
        chain = canonical_chain(t)
        assert realize_chain(chain) == t
        key = chain_text(chain)
        assert key not in seen, f"chain collision with {seen[key]}"
        seen[key] = triple_text(t)


# -- the one-pass round trip -------------------------------------------------


def folded(chain):
    """The reference realization: one ``_extend`` per step, base-up, each a whole triple."""
    cur = chain.base
    for step in chain.steps:
        cur = segtriples.triples._extend(cur, step.rho, step.lower, step.upper, step.sign)
    return cur


def assert_same_triple(got, want):
    assert got == want
    assert list(got.rows) == list(want.rows) and triple_text(got) == triple_text(want)


@pytest.mark.parametrize("cusp,symbols,max_a,count", [
    (C0, [r, q], 9, 1_785),
    (C17, [r], 13, 266),  # pair-signed rows, many grown below the base's lowest block
])
def test_realization_equals_the_step_by_step_fold(cusp, symbols, max_a, count):
    found = enumerate_admissible(cusp, symbols, max_a=max_a)
    assert len(found) == count
    for t in found:
        chain = canonical_chain(t)
        got = realize_chain(chain)
        assert_same_triple(got, folded(chain))
        assert got == t


# c17 [r, q] mixes pair-signed rows at r with singles at q; c0 [r, q] has singles at both
INTERLEAVE_POOL = tuple(enumerate_admissible(C17, [r, q], max_a=9) + enumerate_admissible(C0, [r, q], max_a=7))


@st.composite
def interleaved_chains(draw):
    """A canonical chain from the pool with its steps at different symbols
    merged in any order (each symbol's own order kept), some signs flipped
    and some steps dropped, which ``chain_violations`` all allows; and the
    triple it came from when nothing was flipped or dropped."""
    t = draw(st.sampled_from(INTERLEAVE_POOL))
    canonical = canonical_chain(t)
    steps = canonical.steps
    order = draw(st.permutations([step.rho for step in steps]))
    queues = {rho: [step for step in steps if step.rho == rho] for rho in order}
    merged = [queues[rho].pop(0) for rho in order]
    flips = draw(st.lists(st.booleans(), min_size=len(merged), max_size=len(merged)))
    drops = draw(st.lists(st.booleans(), min_size=len(merged), max_size=len(merged)))
    kept = tuple(ChainStep(s.rho, s.lower, s.upper, -s.sign if flip else s.sign)
                 for s, flip, drop in zip(merged, flips, drops) if not drop)
    chain = ReductionChain(canonical.base, kept)
    return chain, t if not any(flips) and not any(drops) else None


@settings(max_examples=300, deadline=None)
@given(interleaved_chains())
def test_realization_of_interleaved_chains_equals_the_fold(drawn):
    chain, source = drawn
    assert chain_violations(chain) == []
    got = realize_chain(chain)
    assert_same_triple(got, folded(chain))
    if source is not None:
        assert got == source


def test_a_pair_inserted_below_a_pair_signed_row_takes_the_successors_letter():
    base = odd_triple(C17, [9, 11], pairs={(9, 11): MINUS})
    for sign in (PLUS, MINUS):
        chain = ReductionChain(base, (ChainStep(q, 2, 4, PLUS), ChainStep(r, 5, 7, sign),
                                      ChainStep(q, 6, 8, MINUS), ChainStep(r, 1, 3, -sign)))
        got = realize_chain(chain)
        assert_same_triple(got, folded(chain))
        assert got.pair(r, 1, 3) == got.pair(r, 5, 7) == PLUS
        assert got.pair(r, 3, 5) == -sign and got.pair(r, 7, 9) == sign


@pytest.mark.parametrize("base,steps,message", [
    # a step meets a block of the base
    (odd_triple(C1, [3]), [(r, 1, 5, PLUS)], "[1,5] meets an existing block at r"),
    # a later step lands on a block an earlier step inserted: inside, at its upper end, at its lower end
    (JordanTriple(C0), [(r, 3, 9, PLUS), (r, 1, 5, MINUS)], "[1,5] meets an existing block at r"),
    (JordanTriple(C0), [(r, 5, 9, PLUS), (r, 1, 5, MINUS)], "[1,5] meets an existing block at r"),
    (JordanTriple(C0), [(q, 2, 6, PLUS), (q, 6, 10, PLUS)], "[6,10] meets an existing block at q"),
    # steps at two symbols both collide: the first in chain order is reported
    (JordanTriple(C0), [(q, 2, 6, PLUS), (r, 3, 9, PLUS), (r, 1, 5, PLUS), (q, 4, 8, PLUS)],
     "[1,5] meets an existing block at r"),
    (JordanTriple(C0), [(r, 3, 9, PLUS), (q, 2, 6, PLUS), (q, 4, 8, PLUS), (r, 1, 5, PLUS)],
     "[4,8] meets an existing block at q"),
])
def test_realization_refuses_a_step_that_meets_a_block(base, steps, message):
    chain = ReductionChain(base, tuple(ChainStep(*step) for step in steps))
    assert chain_violations(chain) == []
    with pytest.raises(GapError) as folding:
        folded(chain)
    with pytest.raises(GapError) as realizing:
        realize_chain(chain)
    assert str(realizing.value) == str(folding.value) == message


@pytest.fixture
def built_triples(monkeypatch):
    """A list that grows by one at each call of ``JordanTriple._of_rows``."""
    calls = []
    of_rows = JordanTriple._of_rows

    def counted(cls, cusp, rows, text=None):
        calls.append(rows)
        return of_rows(cusp, rows, text)

    monkeypatch.setattr(JordanTriple, "_of_rows", classmethod(counted))
    return calls


def test_a_round_trip_builds_only_the_base_and_the_result(built_triples):
    t = user_triple()
    chain = canonical_chain(t)
    assert len(built_triples) == 1
    assert len(chain.steps) == 2 and realize_chain(chain) == t
    assert len(built_triples) == 2
    for t in INTERLEAVE_POOL:
        built_triples.clear()
        assert realize_chain(canonical_chain(t)) == t
        assert len(built_triples) <= 2
