import ast
import gc
import hashlib
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from segtriples import (
    EVEN,
    ODD,
    CuspidalSymbol,
    ExpansionTable,
    FormalSum,
    GLTerm,
    GSpinTerm,
    GradeError,
    HalfInt,
    Segment,
    degree_conserved,
    expand_induced,
    flatten_sum,
    comult,
    induce,
    render_term,
)
from segtriples import structural
from segtriples.algebra import SizeLimitError
from segtriples.config import load_config
from helpers import collections_during, comult_gl, run_cli

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
SYMBOLS = {"r": r, "q": q}


@pytest.fixture
def table():
    t = ExpansionTable()
    t.add_cuspidal("c0")
    return t


C0 = GSpinTerm.cuspidal("c0")


def gl(*segs):
    return GLTerm.of(*segs)


def test_gspin_term_shape():
    assert C0.is_cuspidal
    node = induce(Segment(r, 0, 1), C0)
    assert node.gl_terms == (gl(Segment(r, 0, 1)),)
    assert str(node) == "d([0,1],r) |x c0"
    with pytest.raises(ValueError):
        GSpinTerm((GLTerm.unit(),), "c0")
    with pytest.raises(ValueError):
        GSpinTerm((), "")
    with pytest.raises(TypeError, match="^gl_terms must contain GLTerm objects$"):
        GSpinTerm([Segment(r, 0, 0)], "c0")


def test_induce_drops_the_unit():
    assert induce(Segment(r, 1, 0), C0) is C0
    assert induce(GLTerm.unit(), C0) is C0
    with pytest.raises(TypeError):
        induce("nonsense", C0)


def test_cuspidal_leaf_expands_to_itself(table):
    leaf = table.lookup(C0)
    assert leaf == FormalSum.of((GLTerm.unit(), C0), 1)


def test_point_segment_expansion(table):
    # one shed-left, one shed-right and one kept placement survive
    s = Segment(r, 0, 0)
    out = expand_induced(s, C0, table)
    node = induce(s, C0)
    expected = FormalSum({
        (GLTerm.unit(), node): 1,
        (gl(s), C0): 2,
    })
    assert out == expected


def test_balanced_half_integer_expansion(table):
    s = Segment(q, HalfInt(-0.5), HalfInt(0.5))
    out = expand_induced(s, C0, table)
    node = induce(s, C0)
    half = HalfInt(0.5)
    up = Segment(q, half, half)
    down = Segment(q, -half, -half)
    expected = FormalSum({
        (GLTerm.unit(), node): 1,
        (gl(s), C0): 2,
        (gl(up), induce(down, C0)): 1,
        (gl(up), induce(up, C0)): 1,
        (gl(up, up), C0): 1,
    })
    assert out == expected
    assert len(out) == 5 and out.total == 6


def test_two_level_tower_expansion(table):
    s0, s1 = Segment(r, 0, 0), Segment(r, 1, 1)
    expand_induced(s0, C0, table)
    mid = induce(s0, C0)
    out = expand_induced(s1, mid, table)
    top = induce(s1, mid)
    expected = FormalSum({
        (GLTerm.unit(), top): 1,
        (gl(Segment(r, 1, 1)), mid): 1,
        (gl(Segment(r, -1, -1)), mid): 1,
        (gl(Segment(r, 0, 0), Segment(r, 1, 1)), C0): 2,
        (gl(Segment(r, 0, 0)), induce(s1, C0)): 2,
        (gl(Segment(r, -1, -1), Segment(r, 0, 0)), C0): 2,
    })
    assert out == expected
    assert out.total == 9 and len(out) == 6


def test_memoization_returns_the_registered_sum(table):
    s = Segment(r, 0, 0)
    first = expand_induced(s, C0, table)
    assert expand_induced(s, C0, table) is first
    assert table.lookup(induce(s, C0)) is first


def test_lookup_of_unknown_object(table):
    with pytest.raises(ValueError, match="no expansion registered"):
        table.lookup(induce(Segment(r, 0, 3), C0))


def test_register_validates_entries(table):
    s = Segment(r, 0, 0)
    node = induce(s, C0)
    # no unit-left term at all
    with pytest.raises(ValueError):
        table.register(node, FormalSum.of((gl(s), C0), 1))
    # unit-left coefficient must be exactly one
    with pytest.raises(ValueError):
        table.register(node, FormalSum.of((GLTerm.unit(), node), 2))
    # grade of every term must be GL (x) tower
    bad = FormalSum({(GLTerm.unit(), node): 1, (gl(s), gl(s)): 1})
    with pytest.raises(GradeError):
        table.register(node, bad)
    # a cuspidal leaf cannot restrict to anything else
    fresh = ExpansionTable()
    leaf = GSpinTerm.cuspidal("x")
    with pytest.raises(ValueError):
        fresh.register(leaf, FormalSum({
            (GLTerm.unit(), leaf): 1, (gl(s), leaf): 1}))


def test_register_writes_once(table):
    s = Segment(r, 0, 0)
    node = induce(s, C0)
    first = expand_induced(s, C0, table)
    with pytest.raises(ValueError, match="already registered"):
        table.register(node, first)
    with pytest.raises(ValueError, match="already registered"):
        table.add_cuspidal("c0")


def test_flatten_forgets_build_order():
    segs = [Segment(r, 0, 1), Segment(r, -1, 0)]
    tables = [ExpansionTable(), ExpansionTable()]
    sums = []
    for tab, order in zip(tables, (segs, list(reversed(segs)))):
        cur = tab.add_cuspidal("c0")
        for s in order:
            expand_induced(s, cur, tab)
            cur = induce(s, cur)
        sums.append(tab.lookup(cur))
    assert sums[0] != sums[1]  # stacks differ
    assert flatten_sum(sums[0]) == flatten_sum(sums[1])


def test_degree_conservation_on_random_towers():
    rng = random.Random(7)
    table = ExpansionTable()
    base = table.add_cuspidal("c0")
    leaf_degree = {"c0": 4}
    for _ in range(60):
        cur = base
        total = leaf_degree["c0"]
        for _ in range(rng.randint(1, 3)):
            rho = rng.choice([r, q])
            twice = 2 * rng.randint(-3, 3) + (0 if rho is r else 1)
            a = HalfInt.from_twice(twice)
            s = Segment(rho, a, a + rng.randint(0, 3))
            out = expand_induced(s, cur, table)
            cur = induce(s, cur)
            total += s.degree
            assert degree_conserved(out, total, leaf_degree)
            assert out.coefficient((GLTerm.unit(), cur)) == 1


def _random_segment(rng):
    rho = rng.choice([r, q])
    a = HalfInt.from_twice(2 * rng.randint(-3, 3) + (0 if rho is r else 1))
    return Segment(rho, a, a + rng.randint(0, 3))


def _mu_star_from_comult(seg, base_rows):
    """Tadic's structure formula, built from the comultiplication: every
    L (x) R of m*(seg), every u (x) kept of m*(L) and every base row
    tau (x) s' give (R^v x u x tau) (x) (kept |x s'), where R^v maps
    each segment [x, y] to [-y, -x]."""
    out = {}
    for (left, right), _ in comult(seg).terms:
        dual = GLTerm.of(*(Segment(s.rho, -s.b, -s.a) for s in right.segments))
        for (u, kept), _ in comult_gl(left).terms:
            for (tau, sprime), c in base_rows.terms:
                key = (dual * u * tau, induce(kept, sprime))
                out[key] = out.get(key, 0) + c
    return FormalSum(out)


def _flat_leg(gl_terms, base):
    """The flattened object over ``base`` carrying every segment of
    ``gl_terms``, built through the public constructors."""
    segs = [s for t in gl_terms for s in t.segments]
    return GSpinTerm((GLTerm(segs),), base) if segs else GSpinTerm.cuspidal(base)


def _depth_one_rows(seg):
    """m*(seg |x c0) as a list of ((gl, leg), coefficient), from comult."""
    return list(_mu_star_from_comult(seg, FormalSum.of((GLTerm.unit(), C0))))


def _multiplicative_mu_star(segs, base_rows):
    """Flattened m* of the tower segs over a base, by Tadic's
    multiplicativity m*(s1 x ... x sn |x sigma) = M*(s1) x ... x M*(sn)
    |x m*(sigma): every choice of one depth-1 row per segment, times
    every base row, with the GL legs multiplied and the induced legs
    merged into one multiset."""
    out = {}
    for picks in itertools.product(*map(_depth_one_rows, segs)):
        left, legs, coeff = GLTerm.unit(), [], 1
        for (gl, leg), c in picks:
            left, coeff = left * gl, coeff * c
            legs.extend(leg.gl_terms)
        for (tau, sprime), c in base_rows:
            key = (left * tau, _flat_leg(legs + list(sprime.gl_terms), sprime.base))
            out[key] = out.get(key, 0) + coeff * c
    return FormalSum(out)


def test_deep_tower_is_the_product_of_its_depth_one_rows():
    seg = Segment(r, -1, 2)
    table = ExpansionTable()
    cur = table.add_cuspidal("c0")
    for _ in range(4):
        out = expand_induced(seg, cur, table)
        cur = induce(seg, cur)
    flat = flatten_sum(out)
    assert (len(out), out.total, len(flat)) == (16920, 50625, 3060)
    # every multiset of four depth-1 rows, weighted by its multinomial
    rows = _depth_one_rows(seg)
    assert len(rows) == 15 and all(c == 1 for _, c in rows)
    want = {}
    for picks in itertools.combinations_with_replacement(range(len(rows)), 4):
        weight = math.factorial(4)
        for n in Counter(picks).values():
            weight //= math.factorial(n)
        left, legs = GLTerm.unit(), []
        for (gl, leg), c in (rows[p] for p in picks):
            left, weight = left * gl, weight * c
            legs.extend(leg.gl_terms)
        key = (left, _flat_leg(legs, "c0"))
        want[key] = want.get(key, 0) + weight
    assert len(want) == math.comb(18, 4) == 3060
    assert flat == FormalSum(want)
    unit = GLTerm.unit()
    assert [(t, c) for t, c in out if t[0].is_unit] == [((unit, cur), 1)]
    assert [(t, c) for t, c in flat if t[0].is_unit] == [((unit, _flat_leg(cur.gl_terms, "c0")), 1)]


def test_expansion_matches_the_structure_formula_built_from_comult():
    rng = random.Random(11)
    table = ExpansionTable()
    base = table.add_cuspidal("c0")
    for _ in range(250):
        cur = base
        for _ in range(rng.randint(1, 3)):
            s = _random_segment(rng)
            want = _mu_star_from_comult(s, table.lookup(cur))
            out = expand_induced(s, cur, table)
            assert out == want
            cur = induce(s, cur)
            structural._check_entry(cur, out)  # the rule register applies, in full


@st.composite
def segments(draw):
    rho = draw(st.sampled_from([r, q]))
    a = HalfInt.from_twice(2 * draw(st.integers(-3, 3)) + (0 if rho is r else 1))
    return Segment(rho, a, a + draw(st.integers(0, 2)))


MU_FIXTURE = load_config(Path(__file__).parent / "fixtures" / "mu_fixture.json")
FIXTURE_BASE = next(iter(MU_FIXTURE.expansions))


@settings(max_examples=40, deadline=None)
@given(st.lists(segments(), min_size=1, max_size=4), st.sampled_from([C0, FIXTURE_BASE]))
def test_random_towers_are_multiplicative(segs, base):
    table = MU_FIXTURE.expansion_table()
    cur = base
    for s in segs:
        out = expand_induced(s, cur, table)
        cur = induce(s, cur)
        structural._check_entry(cur, out)
    base_rows = table.lookup(base)
    assert flatten_sum(out) == _multiplicative_mu_star(segs, base_rows)
    level_totals = [sum(c for _, c in _depth_one_rows(s)) for s in segs]
    assert out.total == math.prod(level_totals) * base_rows.total


def _fraction_line(term, coeff):
    """One line of ``mu-star`` output, written from the keys the term
    carries with each doubled endpoint read as a Fraction."""
    def gl(key):
        return " x ".join(f"d([{Fraction(a, 2)},{Fraction(b, 2)}],{rid})" for rid, a, b in key) or "1"

    gl_key, (stack, base) = term[0].key, term[1].key
    body = f"{gl(gl_key)} (x) " + " |x ".join([*map(gl, stack), base])
    return body if coeff == 1 else f"{coeff} * {body}"


@settings(max_examples=40, deadline=None)
@given(st.lists(segments(), min_size=1, max_size=3), st.sampled_from([C0, FIXTURE_BASE]))
def test_rendered_towers_are_written_from_their_keys(segs, base):
    table = MU_FIXTURE.expansion_table()
    cur = base
    for s in segs:
        out = expand_induced(s, cur, table)
        cur = induce(s, cur)
    want = [_fraction_line(t, c) for t, c in sorted(out, key=lambda tc: (tc[0][0].key, tc[0][1].key))]
    assert [render_term(t, c) for t, c in out.terms] == want
    assert str(out) == " + ".join(want)


def _rows_the_old_way(seg, base_rows):
    """The double sum of ``expand_induced`` written out with public values:
    for every pair i <= j and every base row tau (x) s', the generic
    product ``shed * tau``, the kept segment induced over s', and each row
    added by ``out.get`` then a store."""
    _, lo, hi = seg.key

    def gl(a, b):  # the GL term of [a/2, b/2], the unit when that is empty
        return GLTerm.of(Segment(seg.rho, HalfInt.from_twice(a), HalfInt.from_twice(b)))

    doubled = range(lo - 2, hi + 1, 2)
    out = {}
    for i in doubled:
        for j in doubled:
            if j < i:
                continue
            shed, kept = gl(-i, -lo) * gl(j + 2, hi), gl(i + 2, j)
            for (tau, sprime), c in base_rows:
                key = (shed * tau, induce(kept, sprime))
                out[key] = out.get(key, 0) + c
    return out


def _assert_rows_match(seg, base, table):
    want = _rows_the_old_way(seg, table.lookup(base))
    out = expand_induced(seg, base, table)
    assert dict(out) == want and len(out) == len(want)
    for (gl, _), _ in out:
        public = GLTerm.of(*gl.segments)
        assert gl == public and hash(gl) == hash(public) and gl.key == public.key
    return induce(seg, base)


@settings(max_examples=60, deadline=None)
@given(st.lists(segments(), min_size=1, max_size=3), st.sampled_from([C0, FIXTURE_BASE]))
def test_expansion_rows_match_the_old_way_on_random_towers(segs, base):
    table = MU_FIXTURE.expansion_table()
    for s in segs:
        base = _assert_rows_match(s, base, table)


def test_expansion_rows_match_the_old_way_up_to_depth_four():
    table = ExpansionTable()
    cur = table.add_cuspidal("c0")
    for _ in range(4):
        cur = _assert_rows_match(Segment(r, -1, 2), cur, table)


def test_deep_mu_star_output_is_pinned():
    code, out, _ = run_cli(["mu-star", "--config", str(Path(__file__).parent / "fixtures" / "base.json"),
                            "--sigma", "c0"] + ["--seg", "r:[-1,2]"] * 4)
    assert code == 0 and out.count("\n") == 16920
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8640b03895791c5ecc361a6937147551c3b0c8c540d0737eeefbdfe430430f8c")


@settings(max_examples=150, deadline=None)
@given(st.lists(segments(), min_size=2, max_size=3), st.data())
def test_flatten_forgets_build_order_on_random_stacks(segs, data):
    sums = []
    for order in (segs, data.draw(st.permutations(segs))):
        tab = ExpansionTable()
        cur = tab.add_cuspidal("c0")
        for s in order:
            expand_induced(s, cur, tab)
            cur = induce(s, cur)
        sums.append(flatten_sum(tab.lookup(cur)))
    assert sums[0] == sums[1]


def _rebuilt(term):
    gl, obj = term
    return GLTerm(list(gl.segments)), GSpinTerm(list(obj.gl_terms), obj.base)


def test_trusted_terms_equal_and_hash_as_publicly_built_ones():
    rng = random.Random(5)
    table = ExpansionTable()
    base = table.add_cuspidal("c0")
    checked = segments_checked = 0
    for _ in range(80):
        cur = base
        for _ in range(rng.randint(1, 3)):
            s = _random_segment(rng)
            out = expand_induced(s, cur, table)
            cur = induce(s, cur)
            for term, _ in list(out) + list(flatten_sum(out)):
                for x, rebuilt in zip(term, _rebuilt(term)):
                    assert hash(x) == hash(x.key) == hash(rebuilt)
                    assert x == rebuilt and x.key == rebuilt.key
                gl, obj = term
                for seg in gl.segments + tuple(s for t in obj.gl_terms for s in t.segments):
                    rebuilt = Segment(SYMBOLS[seg.key[0]], seg.a, seg.b)
                    assert seg == rebuilt and hash(seg) == hash(rebuilt)
                    assert seg.rho is rebuilt.rho
                    segments_checked += 1
                checked += 1
    assert checked > 1000 and segments_checked > 5000


def test_expansion_refuses_a_sum_over_the_row_limit_before_any_work(table):
    # the double sum visits (pairs i <= j) x (base rows) rows; r:[-1,2] has 15 pairs,
    # so depth 5 visits 15 x 16,920 rows and depth 6 would visit 15 x 169,326
    assert structural.MAX_ROWS == 1_000_000
    with pytest.raises(SizeLimitError, match="^the expansion visits 2005003 base rows, "
                                             "over the limit of 1000000$"):
        expand_induced(Segment(r, -1000, 1000), C0, table)  # 2,005,003 pairs over one row
    assert induce(Segment(r, -1000, 1000), C0) not in table and gc.isenabled()
    base = induce(Segment(q, 0, 0), C0)
    expand_induced(Segment(q, 0, 0), C0, table)  # two rows
    with pytest.raises(SizeLimitError, match="^the expansion visits 1001000 base rows"):
        expand_induced(Segment(r, 0, 998), base, table)  # 500,500 pairs over two rows
    assert induce(Segment(r, 0, 998), base) not in table


def test_gspin_terms_are_frozen():
    node = induce(Segment(r, 0, 1), C0)
    d = {node: 1}
    with pytest.raises(AttributeError):
        node.key = ((), "c0")
    with pytest.raises(AttributeError):
        node.base = "c1"
    assert node in d


def test_expansion_leaves_the_collector_enabled(table):
    assert gc.isenabled()
    s = Segment(r, -1, 2)
    first = expand_induced(s, C0, table)
    assert gc.isenabled()
    assert expand_induced(s, C0, table) is first  # a memo hit
    assert gc.isenabled()
    flatten_sum(expand_induced(s, induce(s, C0), table))
    assert gc.isenabled()


def test_expansion_leaves_a_disabled_collector_disabled(table):
    gc.disable()
    try:
        out = expand_induced(Segment(r, 0, 1), C0, table)
        assert not gc.isenabled()
        flatten_sum(out)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_expansion_leaves_no_young_pass_owed(table):
    s = Segment(r, -1, 2)
    expand_induced(s, C0, table)
    flatten_sum(expand_induced(s, induce(s, C0), table))
    base = induce(s, induce(s, C0))
    passes, out = collections_during(lambda: expand_induced(s, base, table))  # thousands kept
    assert gc.get_count()[0] < gc.get_threshold()[0]
    assert passes == 0 and len(out) == 1685
    passes, _ = collections_during(lambda: flatten_sum(out))
    assert gc.get_count()[0] < gc.get_threshold()[0] and passes == 0


def test_expansion_leaves_frozen_objects_frozen(table):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        s = Segment(r, -1, 2)
        expand_induced(s, C0, table)
        flatten_sum(expand_induced(s, induce(s, C0), table))
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    finally:
        gc.unfreeze()


def test_a_callers_cycle_is_freed_by_a_full_collection(table):
    class Node:
        pass

    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    s = Segment(r, -1, 2)
    expand_induced(s, C0, table)
    flatten_sum(expand_induced(s, induce(s, C0), table))
    gc.collect()
    assert ref() is None


def test_the_collector_is_switched_in_one_place():
    # every name gc in the package lies in structural._collector_paused, and only structural imports it
    names, imports = {}, {}
    for path in sorted(Path(structural.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names[path.stem] = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "gc"]
        imports[path.stem] = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "gc"
                              or isinstance(n, ast.Import) and any(a.name == "gc" for a in n.names)]
        if path.stem == "structural":
            paused = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_collector_paused")
            inside = [n for n in ast.walk(paused) if isinstance(n, ast.Name) and n.id == "gc"]
    assert inside and names.pop("structural") == inside and not any(names.values())
    assert [ast.unparse(n) for n in imports.pop("structural")] == ["import gc"] and not any(imports.values())


def test_failed_expansion_leaves_the_collector_enabled(table):
    with pytest.raises(ValueError, match="no expansion registered"):
        expand_induced(Segment(r, 0, 1), GSpinTerm.cuspidal("zz"), table)
    assert gc.isenabled()
