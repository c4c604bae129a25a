"""Acceptance gate: one test per headline guarantee, run end to end.

Each test below sweeps the full stated range (no sampling down) and is
meant to be read as a single pass/fail line under pytest -v.
"""

import itertools
import random
import time

from segtriples.algebra import (
    EVEN,
    ODD,
    CuspidalSymbol,
    FormalSum,
    GLTerm,
    Segment,
    comult,
)
from segtriples.classify import (
    canonical_chain,
    chain_text,
    enumerate_admissible,
    realize_chain,
)
from segtriples.halfint import HalfInt
from segtriples.lcalc import (
    EmbeddingDatum,
    PreconditionError,
    intertwining_ratios,
    jord_update,
    jordan_set_from_pole_orders,
)
from segtriples.structural import (
    ExpansionTable,
    degree_conserved,
    expand_induced,
    induce,
)
from segtriples.triples import (
    MINUS,
    PLUS,
    CuspidalSupport,
    JordanTriple,
    dominating_extensions,
    is_admissible,
    reduce_at,
    singles_defined,
    subordinate_reductions,
    triple_text,
    validate_triple,
)

from helpers import coassoc_sides, condition3_checks, gap_insertions, run_cli
from test_cli import GOLDEN, GOLDEN_RUNS

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0", {})
C1 = CuspidalSupport("c1", {r: [1]})
C17 = CuspidalSupport("c17", {r: [1, 7]})


def test_criterion_1_two_extensions_per_gap():
    """Every gap insertion into an admissible triple yields exactly two
    admissible dominating extensions, both reducing back to it."""
    start = time.monotonic()
    insertions = 0
    for cusp, sym in ((C0, r), (C0, q), (C17, r)):
        for t in enumerate_admissible(cusp, [sym], max_a=11, max_jord=6):
            for lower, upper in gap_insertions(t, sym, 15):
                insertions += 1
                exts = dominating_extensions(t, lower, upper, sym)
                assert len(exts) == 2
                assert exts[0] != exts[1]
                for e in exts:
                    assert is_admissible(e) is not None
                    assert reduce_at(e, sym, lower, upper) == t
    assert insertions > 900
    assert time.monotonic() - start < 60


def test_criterion_2_chain_bijection_round_trip():
    """canonical_chain inverts through realize_chain and never sends two
    triples over one support to the same chain."""
    chain_to_triple = {}
    triples_seen = set()
    for cusp, syms in ((C0, [r]), (C0, [q]), (C0, [r, q]), (C1, [r])):
        for t in enumerate_admissible(cusp, syms, max_a=9):
            chain = canonical_chain(t)
            assert realize_chain(chain) == t
            key = (cusp.id, chain_text(chain))
            assert chain_to_triple.get(key, t) == t
            chain_to_triple[key] = t
            triples_seen.add((cusp.id, triple_text(t)))
    assert len(chain_to_triple) == len(triples_seen) > 1800


def test_criterion_3_update_rule_matches_pole_orders():
    """The closed-form block update agrees with the order-two pole scan on
    every in-range embedding, and the extra denominator zero at
    x = -(z-1)/2 - 1 never fires once the top exponent is nonnegative."""
    checked = raised = 0
    for rho, lattice, pool in (
            (r, [HalfInt(v) for v in range(-5, 6)], [1, 3, 5, 7, 9, 11, 13]),
            (q, [HalfInt.from_twice(w) for w in range(-9, 10, 2)],
             [2, 4, 6, 8, 10, 12])):
        for x, y in itertools.product(lattice, repeat=2):
            if y > x:
                continue
            if x >= 0:
                probe = EmbeddingDatum(rho, x, y, frozenset())
                for z in pool:
                    _, second = intertwining_ratios(z, probe)
                    assert second.denominator_shift != 0
            for k in range(len(pool) + 1):
                for base in itertools.combinations(pool, k):
                    emb = EmbeddingDatum(rho, x, y, frozenset(base))
                    bad = x < 0 or (y > 0 and y.twice - 1 not in base)
                    if bad:
                        raised += 1
                        try:
                            jord_update(emb)
                        except PreconditionError:
                            continue
                        raise AssertionError(f"no precondition error for {emb}")
                    checked += 1
                    assert jord_update(emb) == jordan_set_from_pole_orders(emb, 13)
    assert checked > 3000 and raised > 3000


def test_chain_steps_agree_with_the_update_rule_and_pole_orders():
    """A canonical-chain step inserting (lower, upper) at rho is the
    embedding with x = (upper - 1)/2 and y = (1 - lower)/2 over the Jord
    at rho before the step; both lcalc routes give the Jord after it."""
    steps = 0
    for cusp in (C0, C17):
        for t in enumerate_admissible(cusp, [r, q], max_a=9):
            after = t
            for step in reversed(canonical_chain(t).steps):
                before = reduce_at(after, step.rho, step.lower, step.upper)
                emb = EmbeddingDatum(step.rho, HalfInt.from_twice(step.upper - 1),
                                     HalfInt.from_twice(1 - step.lower),
                                     before.jord_of(step.rho))
                want = frozenset(after.jord_of(step.rho))
                assert jord_update(emb) == want
                assert jordan_set_from_pole_orders(emb, 11) == want
                after = before
                steps += 1
    assert steps == 6416


def test_criterion_4_structural_formula_hand_tables():
    """The two hand-computed expansion tables come out exactly, and 1000
    randomized towers conserve degree with a unique unit-left lead term."""
    table = ExpansionTable()
    base = table.add_cuspidal("c0")

    point = Segment(r, 0, 0)
    got = expand_induced(point, base, table)
    want = FormalSum({
        (GLTerm.unit(), induce(point, base)): 1,
        (GLTerm.of(point), base): 2,
    })
    assert got == want and got.total == 3

    balanced = Segment(q, HalfInt(-0.5), HalfInt(0.5))
    up = Segment(q, HalfInt(0.5), HalfInt(0.5))
    down = Segment(q, HalfInt(-0.5), HalfInt(-0.5))
    got = expand_induced(balanced, base, table)
    want = FormalSum({
        (GLTerm.unit(), induce(balanced, base)): 1,
        (GLTerm.of(balanced), base): 2,
        (GLTerm.of(up), induce(down, base)): 1,
        (GLTerm.of(up), induce(up, base)): 1,
        (GLTerm.of(up, up), base): 1,
    })
    assert got == want and got.total == 6

    rng = random.Random(20260819)
    leaf_degree = {"c0": 3}
    checked = 0
    while checked < 1000:
        cur, total = base, leaf_degree["c0"]
        for _ in range(rng.randint(1, 3)):
            rho = rng.choice((r, q))
            a = HalfInt.from_twice(2 * rng.randint(-4, 4) + (0 if rho is r else 1))
            seg = Segment(rho, a, a + rng.randint(0, 3))
            out = expand_induced(seg, cur, table)
            cur = induce(seg, cur)
            total += seg.degree
            assert degree_conserved(out, total, leaf_degree)
            unit_rows = [(term, c) for term, c in out.terms
                         if term[0] == GLTerm.unit()]
            assert unit_rows == [((GLTerm.unit(), cur), 1)]
            checked += 1


def test_criterion_5_comultiplication_coassociative():
    """Segment comultiplication has span+2 unit-coefficient terms and both
    double refinements agree on every segment of span at most 5."""
    for rho in (r, q):
        for twice in range(-5, 6):
            a = HalfInt.from_twice(twice)
            for span in range(6):
                seg = Segment(rho, a, a + span)
                expansion = comult(seg)
                assert len(expansion) == span + 2
                assert all(c == 1 for _, c in expansion.terms)
                left, right = coassoc_sides(seg)
                assert left == right


def test_criterion_6_triple_calculus_invariants():
    """Reductions drop exactly two blocks and stay valid, derived pair
    signs multiply out of single signs, and the rewired bridge sign is
    recomputed correctly along every canonical chain."""
    bridge_checks = 0
    for cusp, sym, max_a in ((C0, r, 11), (C0, q, 12), (C17, r, 11), (C1, r, 9)):
        for t in enumerate_admissible(cusp, [sym], max_a=max_a, max_jord=6):
            for red in subordinate_reductions(t):
                assert red.result.size == t.size - 2
                assert validate_triple(red.result) == []
            if singles_defined(cusp, sym):
                for lo, hi in t.adjacent_pairs(sym):
                    assert t.pair(sym, lo, hi) == t.single(sym, lo) * t.single(sym, hi)
            bridge_checks += condition3_checks(t, canonical_chain(t))
    assert bridge_checks > 100


def test_criterion_7_fresh_pair_signs_split():
    """Inserting a pair at an odd symbol with no cuspidal blocks and no
    prior blocks gives one extension of each sign on the new blocks."""
    mixed = JordanTriple(C0, [(q, 2), (q, 4)],
                         {(q, 2): PLUS, (q, 4): PLUS}, {(q, 2, 4): PLUS})
    for t in (JordanTriple(C0, (), {}, {}), mixed):
        for lower, upper in itertools.combinations(range(1, 16, 2), 2):
            exts = dominating_extensions(t, lower, upper, r)
            assert len(exts) == 2
            assert sorted(e.single(r, upper) for e in exts) == [MINUS, PLUS]
            for e in exts:
                assert e.single(r, lower) == e.single(r, upper)
                assert is_admissible(e) is not None
                assert reduce_at(e, r, lower, upper) == t


def test_criterion_8_cli_determinism_and_goldens():
    """Every fixture command matches its golden file byte for byte, on a
    cold run and again on a warm one."""
    for name, want_code, argv in GOLDEN_RUNS:
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        cold = run_cli(argv)
        warm = run_cli(argv)
        assert cold[0] == want_code and warm[0] == want_code
        assert cold[1] == golden and warm[1] == golden
