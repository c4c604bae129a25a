from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    AlternatedWitness,
    ChainStep,
    CuspidalSupport,
    CuspidalSymbol,
    EmbeddingDatum,
    FormalSum,
    GLTerm,
    GradeError,
    GSpinTerm,
    HalfInt,
    JordanTriple,
    LRatio,
    Reduction,
    ReductionChain,
    Segment,
    comult,
    enumerate_admissible,
    induce,
    render_term,
    triple_text,
    validate_triple,
)
from segtriples.algebra import _placed
from segtriples.halfint import _half_text
from helpers import coassoc_sides

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)


def seg(a, b, rho=r):
    return Segment(rho, a, b)


# -- symbols ---------------------------------------------------------------


def test_symbol_validation():
    with pytest.raises(ValueError):
        CuspidalSymbol("", 1, ODD)
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 0, ODD)
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, "sideways")


@pytest.mark.parametrize("ch", [" ", "\t", "\n", "\u2003", ";", "{", "}"], ids=repr)
def test_symbol_ids_hold_nothing_the_text_form_ends_on(ch):
    with pytest.raises(ValueError, match="^symbol id .* must hold no whitespace, ';', '{' or '}'$"):
        CuspidalSymbol(f"a{ch}b", 1, ODD)
    with pytest.raises(ValueError, match="^symbol id must be a nonempty string$"):
        CuspidalSymbol(None, 1, ODD)


def test_symbol_parity():
    assert r.matches_parity(1) and r.matches_parity(3)
    assert not r.matches_parity(2)
    assert q.matches_parity(2) and not q.matches_parity(1)
    # negative integers keep their parity
    assert r.matches_parity(-1)


def test_symbols_compare_by_id():
    assert CuspidalSymbol("r", 5, EVEN) == r
    assert hash(CuspidalSymbol("r")) == hash(r) == hash("r")


def test_symbols_are_frozen():
    s = CuspidalSymbol("r")
    d = {s: 1}
    for name, value in (("id", "x"), ("rank", 2), ("parity", EVEN), ("_hash", 0)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(s, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(s, name)
    assert (s.id, s.rank, s.parity) == ("r", 1, ODD)
    assert s in d and d[CuspidalSymbol("r")] == 1


# -- segments --------------------------------------------------------------


def test_segment_span_rules():
    assert seg(0, 2).length == 3
    assert seg(1, 0).is_empty
    with pytest.raises(ValueError):
        seg(2, 0)  # span -2
    with pytest.raises(ValueError):
        Segment(r, 0, HalfInt(0.5))  # endpoints in different classes
    with pytest.raises(ValueError):
        Segment(r, float("inf"), 1)


def test_segment_degree_scales_with_rank():
    assert seg(0, 2).degree == 3
    assert Segment(q, 0, 2).degree == 6
    assert seg(1, 0).degree == 0


def test_segment_center():
    assert seg(0, 2).center == HalfInt(1)
    assert Segment(q, HalfInt(-0.5), HalfInt(0.5)).center == HalfInt(0)


def _endpoint_order(term):
    return tuple((s.rho.id, s.a.twice, s.b.twice) for s in term.segments)


@given(st.sampled_from([r, q]), st.integers(-6, 6), st.integers(-1, 4), st.integers(0, 3))
def test_segment_identity_and_order_follow_the_endpoints(rho, twice, span, other):
    lo, hi = HalfInt.from_twice(twice), HalfInt.from_twice(twice + 2 * span)
    forms = [Segment(rho, lo, hi), Segment(rho, lo.twice / 2, hi.twice / 2)]
    if lo.is_integer:
        forms.append(Segment(rho, int(lo), int(hi)))
    assert all(s == forms[0] and hash(s) == hash(forms[0]) for s in forms)
    if forms[0].is_empty:
        return
    # the canonical order, pinned without the library's own keys
    for out in (comult(forms[0]), comult(forms[0]) * comult(Segment(rho, lo, lo + other))):
        got = [term for term, _ in out.terms]
        assert got == sorted(got, key=lambda lr: (_endpoint_order(lr[0]), _endpoint_order(lr[1])))


def test_segment_text():
    assert str(seg(0, 2)) == "d([0,2],r)"
    assert str(Segment(q, HalfInt(-0.5), HalfInt(0.5))) == "d([-1/2,1/2],q)"
    assert str(seg(1, 0)) == "1"


def test_half_text_is_the_text_of_the_fraction():
    for twice in [*range(-400, 401), 10**30, -10**30, 10**30 + 1, -10**30 - 1]:
        want = str(Fraction(twice, 2))
        assert _half_text(twice) == str(HalfInt.from_twice(twice)) == want, twice
        rho = q if twice % 2 else r
        s = Segment(rho, HalfInt.from_twice(twice), HalfInt.from_twice(twice + 2))
        assert repr(s) == f"Segment({rho.id}, {want}, {Fraction(twice + 2, 2)})", twice


# -- GL terms ---------------------------------------------------------------


def test_glterm_is_a_sorted_multiset():
    a, b = seg(0, 1), seg(2, 2)
    assert GLTerm.of(a, b) == GLTerm.of(b, a)
    assert GLTerm.of(a, a).segments == (a, a)
    assert GLTerm(iter([b, a])) == GLTerm.of(a, b)


def test_glterm_unit_handling():
    assert GLTerm.of(seg(1, 0)) == GLTerm.unit()
    assert GLTerm.unit().is_unit
    with pytest.raises(ValueError):
        GLTerm((seg(1, 0),))  # the raw constructor keeps nothing hidden
    for build in (lambda: GLTerm([1]), lambda: GLTerm.of(1)):
        with pytest.raises(TypeError, match="^GLTerm holds Segment objects$"):
            build()


def test_glterm_product_and_degree():
    t = GLTerm.of(seg(0, 1)) * GLTerm.of(seg(2, 2))
    assert t == GLTerm.of(seg(0, 1), seg(2, 2))
    assert t.degree == 3
    assert str(GLTerm.of(seg(0, 0), seg(0, 0))) == "d([0,0],r) x d([0,0],r)"


@st.composite
def gl_terms(draw, max_segments=4):
    """Products of 0-max_segments segments over two symbols; repeats allowed."""
    segs = []
    for _ in range(draw(st.integers(0, max_segments))):
        rho = draw(st.sampled_from([r, q]))
        a = HalfInt.from_twice(2 * draw(st.integers(-2, 2)) + (0 if rho is r else 1))
        segs.append(Segment(rho, a, a + draw(st.integers(0, 2))))
    return GLTerm(segs)


@given(gl_terms(), gl_terms())
def test_glterm_product_merges_like_the_public_constructor(a, b):
    prod = a * b
    want = GLTerm(a.segments + b.segments)
    assert prod.segments == want.segments
    assert prod.key == want.key
    assert hash(prod) == hash(want) == hash(want.key)
    unit = GLTerm.unit()
    assert a * unit == a == unit * a
    if not a.is_unit:
        assert a * unit is a and unit * a is a


@given(gl_terms(max_segments=2), st.lists(gl_terms(), max_size=3))
def test_placed_builds_each_product_as_the_public_constructor_does(shed, drawn):
    # the constructor's sort is the oracle for the one merge behind every GL product;
    # besides the unit and the shed itself (repeated keys), each drawn run comes with
    # its parts lying before and after the shed, and goes across it whole
    unit = GLTerm.unit()
    taus = [unit, shed]
    for tau in drawn:
        if shed.segments:
            taus.append(GLTerm([s for s in tau.segments if s.key <= shed.key[0]]))
            taus.append(GLTerm([s for s in tau.segments if s.key >= shed.key[-1]]))
        taus.append(tau)
    got = _placed(shed, taus)
    want = [GLTerm(shed.segments + tau.segments) for tau in taus]
    assert [t.segments for t in got] == [t.segments for t in want]
    assert [(t.key, hash(t)) for t in got] == [(t.key, hash(t.key)) for t in want]
    assert [a * b for a in taus for b in taus] == [GLTerm(a.segments + b.segments) for a in taus for b in taus]
    # a unit factor gives the other one itself
    assert all(prod is tau for prod, tau in zip(_placed(unit, taus), taus))
    assert all(unit * tau is tau and tau * unit is tau for tau in taus if tau.segments)
    if shed.segments:
        assert _placed(shed, [unit])[0] is shed


def test_values_are_frozen():
    s = seg(0, 1)
    d = {s: 1}
    with pytest.raises(AttributeError):
        s.key = ("r", 0, 4)
    assert s in d
    t = GLTerm.of(s)
    d = {t: 1}
    with pytest.raises(AttributeError):
        t.key = (("r", 0, 4),)
    with pytest.raises(AttributeError):
        t._hash = 0
    with pytest.raises(AttributeError):
        del t.segments
    assert t in d


@pytest.mark.parametrize("make", [
    lambda: CuspidalSymbol("r"),
    lambda: Segment(r, 0, 1),
    lambda: GLTerm.of(Segment(r, 0, 1)),
    lambda: induce(Segment(r, 0, 1), GSpinTerm.cuspidal("c0")),
    lambda: HalfInt(1),
    lambda: CuspidalSupport("c1", {r: {1}}),
    lambda: ChainStep(r, 1, 3, PLUS),
    lambda: ReductionChain(JordanTriple(CuspidalSupport("c0")), ()),
    lambda: Reduction(r, 1, 3, JordanTriple(CuspidalSupport("c0"))),
    lambda: AlternatedWitness(()),
    lambda: enumerate_admissible(CuspidalSupport("c0"), [r, q], max_a=5)[7],
    lambda: JordanTriple(CuspidalSupport("c17", {r: {1, 7}}), [(r, 1), (r, 3), (r, 7)], None,
                         {(r, 1, 3): PLUS, (r, 3, 7): MINUS}),
    lambda: JordanTriple(CuspidalSupport("c0"), [(r, 1)]),
], ids=["CuspidalSymbol", "Segment", "GLTerm", "GSpinTerm", "HalfInt", "CuspidalSupport",
        "ChainStep", "ReductionChain", "Reduction", "AlternatedWitness",
        "JordanTriple-enumerated", "JordanTriple-user-built", "JordanTriple-invalid"])
def test_hashable_values_refuse_assignment(make):
    value = make()
    d = {value: 1}
    # a record held as a tuple has no slots, only its fields
    for name in type(value).__slots__ or type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value in d and d[make()] == 1


def test_an_enumerated_triple_refuses_new_rows():
    t = enumerate_admissible(CuspidalSupport("c0"), [r], max_a=5)[0]
    text = triple_text(t)
    with pytest.raises(AttributeError, match="JordanTriple is immutable"):
        t.rows = {r: ((2,), (PLUS,))}
    assert t.require_valid() is t and validate_triple(t) == [] and triple_text(t) == text


@pytest.mark.parametrize("make", [
    lambda: FormalSum.of(GLTerm.of(Segment(r, 0, 1)), 2),
    lambda: EmbeddingDatum(r, 2, 1, [1]),
    lambda: LRatio(0, 1),
], ids=["FormalSum", "EmbeddingDatum", "LRatio"])
def test_unhashed_values_refuse_assignment(make):
    value = make()
    before = repr(value)
    for name in type(value).__slots__:
        held = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is held
    assert repr(value) == before == repr(make())


# -- formal sums -------------------------------------------------------------


def test_sum_construction_rules():
    t = GLTerm.of(seg(0, 0))
    assert FormalSum({t: 0}) == FormalSum()
    assert not FormalSum()
    a, b = t, GLTerm.of(seg(1, 1))
    # a dict and an iterable of pairs obey the same rules
    for build in (dict, lambda d: list(d.items())):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="coefficients must be integers"):
                FormalSum(build({a: bad}))
        with pytest.raises(ValueError, match="coefficients must be nonnegative"):
            FormalSum(build({a: -1}))
        # the first bad value in iteration order decides the message
        with pytest.raises(ValueError, match="coefficients must be nonnegative"):
            FormalSum(build({a: -1, b: 1.5}))
        with pytest.raises(ValueError, match="coefficients must be integers"):
            FormalSum(build({a: 1.5, b: -1}))
        # a zero is dropped, and every value after it is still checked
        with pytest.raises(ValueError, match="coefficients must be nonnegative"):
            FormalSum(build({a: 0, b: -1}))
        kept = FormalSum(build({a: 0, b: 2}))
        assert list(kept) == [(b, 2)] and kept.coefficient(a) == 0
    # duplicate pairs are summed
    s = FormalSum([(a, 1), (b, 3), (GLTerm.of(seg(0, 0)), 2), (b, 0)])
    assert s == FormalSum({a: 3, b: 3})
    assert s.total == 6 and len(s) == 2


def test_sum_arithmetic():
    t1, t2 = GLTerm.of(seg(0, 0)), GLTerm.of(seg(1, 1))
    s = FormalSum.of(t1) + FormalSum.of(t2) + FormalSum.of(t1)
    assert s.coefficient(t1) == 2
    assert s.total == 3
    assert len(s) == 2
    assert (s * 3).coefficient(t1) == 6
    assert s * 0 == FormalSum()
    with pytest.raises(ValueError):
        s * (-1)


def test_sum_product_respects_grades():
    t = GLTerm.of(seg(0, 0))
    plain = FormalSum.of(t)
    tensor = FormalSum.of((t, t))
    assert (plain * plain).coefficient(t * t) == 1
    assert (tensor * tensor).coefficient((t * t, t * t)) == 1
    with pytest.raises(GradeError):
        plain * tensor
    tower = FormalSum.of((t, GSpinTerm.cuspidal("c0")))
    with pytest.raises(GradeError, match="^no product is defined on the induced leg$"):
        tower * tower


def test_render_term():
    t = GLTerm.of(seg(0, 0))
    assert render_term(t) == "d([0,0],r)"
    assert render_term(t, 2) == "2 * d([0,0],r)"
    assert render_term((GLTerm.unit(), t)) == "1 (x) d([0,0],r)"
    assert str(comult(Segment(r, -1, 1))) == (
        "1 (x) d([-1,1],r) + d([-1,1],r) (x) 1 + d([0,1],r) (x) d([-1,-1],r)"
        " + d([1,1],r) (x) d([-1,0],r)")
    assert str(FormalSum()) == "0"


# -- comultiplication ---------------------------------------------------------


def test_comult_point_segment():
    s = seg(0, 0)
    out = comult(s)
    assert out.coefficient((GLTerm.unit(), GLTerm.of(s))) == 1
    assert out.coefficient((GLTerm.of(s), GLTerm.unit())) == 1
    assert out.total == 2


def test_comult_two_step_segment():
    out = comult(seg(1, 2))
    expected = {
        (GLTerm.of(seg(1, 2)), GLTerm.unit()): 1,
        (GLTerm.of(seg(2, 2)), GLTerm.of(seg(1, 1))): 1,
        (GLTerm.unit(), GLTerm.of(seg(1, 2))): 1,
    }
    assert out == FormalSum(expected)


def test_comult_rejects_the_empty_segment():
    with pytest.raises(ValueError):
        comult(seg(1, 0))


@pytest.mark.parametrize("span", range(6))
def test_comult_term_count_and_unit_coefficients(span):
    for a in (HalfInt(-2), HalfInt(0), HalfInt(0.5), HalfInt(-1.5)):
        out = comult(Segment(r, a, a + span))
        assert out.total == span + 2
        assert all(c == 1 for _, c in out.terms)


@pytest.mark.parametrize("span", range(6))
def test_comult_coassociative(span):
    for a in (HalfInt(-1), HalfInt(0.5)):
        left, right = coassoc_sides(Segment(q, a, a + span))
        assert left == right


@pytest.mark.parametrize("twice_a", [-3, -2, 1, 4])
def test_comult_is_the_sum_of_the_public_splittings(twice_a):
    for span in range(7):
        a = HalfInt.from_twice(twice_a)
        b = a + span
        want = FormalSum({(GLTerm.of(Segment(q, i + 1, b)), GLTerm.of(Segment(q, a, i))): 1
                          for i in HalfInt.range_inclusive(a - 1, b)})
        got = comult(Segment(q, a, b))
        assert got == want and str(got) == str(want)


def test_comult_preserves_degree():
    s = seg(-1, 3)
    for (l, rt), _ in comult(s).terms:
        assert l.degree + rt.degree == s.degree
