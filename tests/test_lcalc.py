import itertools

import pytest

from segtriples import (
    EVEN,
    ODD,
    CuspidalSymbol,
    EmbeddingDatum,
    HalfInt,
    LRatio,
    PreconditionError,
    intertwining_ratios,
    jord_update,
    jordan_set_from_pole_orders,
    plancherel_order,
    plancherel_order_raw,
)

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)


def test_lratio_order():
    assert LRatio(0, 3).order_at_zero() == 1
    assert LRatio(2, 0).order_at_zero() == -1
    assert LRatio(1, -1).order_at_zero() == 0
    # a pole and a zero at the same point cancel
    assert LRatio(0, 0).order_at_zero() == 0


def test_embedding_datum_validation():
    EmbeddingDatum(r, 2, 1, {1, 7})
    with pytest.raises(ValueError):
        EmbeddingDatum(r, 1, 2)  # x - y negative
    with pytest.raises(ValueError):
        EmbeddingDatum(r, HalfInt(1.5), HalfInt(0.5))  # 2x+1 even, r odd
    with pytest.raises(ValueError):
        EmbeddingDatum(r, 2, 1, {2})  # even block on an odd symbol
    with pytest.raises(ValueError):
        EmbeddingDatum(r, 2, 1, {0})
    with pytest.raises(ValueError):
        EmbeddingDatum(r, HalfInt(2), HalfInt(0.5))  # x - y not an integer


def test_given_half_integers_are_kept():
    h = HalfInt(2)
    emb = EmbeddingDatum(r, h, h)
    assert emb.x is h and emb.y is h
    ratio = LRatio(h, h)
    assert ratio.numerator_shift is h and ratio.denominator_shift is h
    # ints and floats are still converted
    assert EmbeddingDatum(r, 2, 1.0).y == HalfInt(1)


def test_ratio_shifts():
    emb = EmbeddingDatum(r, 2, 1, {1})
    first, second = intertwining_ratios(5, emb)
    # half = (5-1)/2 = 2
    assert first.numerator_shift == 0 and first.denominator_shift == 2
    assert second.numerator_shift == 3 and second.denominator_shift == 5


def test_order_pole_from_top_exponent():
    # x = (z-1)/2 at z = 5 contributes a double pole; clamped to 2
    emb = EmbeddingDatum(r, 2, 1, {1})
    assert plancherel_order_raw(5, emb) == 2
    assert plancherel_order(5, emb) == 2


def test_order_zero_kills_base_pole():
    # y = (z-1)/2 + 1 at z = 1 turns the base order 2 into 0
    emb = EmbeddingDatum(r, 2, 1, {1})
    assert plancherel_order_raw(1, emb) == 0
    assert plancherel_order(1, emb) == 0


def test_order_pole_from_bottom_exponent():
    # y = -(z-1)/2 at z = 3
    emb = EmbeddingDatum(r, 2, -1)
    assert plancherel_order(3, emb) == 2


def test_order_clamps_stacked_poles():
    # x = (z-1)/2 and y = -(z-1)/2 fire together at z = 3
    emb = EmbeddingDatum(r, 1, -1)
    assert plancherel_order_raw(3, emb) == 4
    assert plancherel_order(3, emb) == 2


def test_order_checks_its_inputs():
    emb = EmbeddingDatum(r, 2, 1, {1})
    with pytest.raises(ValueError):
        plancherel_order(2, emb)  # wrong parity
    with pytest.raises(ValueError):
        plancherel_order(0, emb)


def _embeddings(rho):
    """Every EmbeddingDatum with -3 <= y <= x <= 6 at rho, over every
    subset of its first four blocks."""
    pool = _pools(rho, 8)
    for x, y in _grid(rho, -6, 12):
        for k in range(len(pool) + 1):
            for base in itertools.combinations(pool, k):
                yield EmbeddingDatum(rho, x, y, base)


@pytest.mark.parametrize("rho", [r, q], ids=["odd", "even"])
def test_integer_order_matches_the_ratios(rho):
    # the raw order counted on doubled integers against the LRatio form,
    # whose shifts are worked out here in HalfInt arithmetic
    checked = fired = 0
    for emb in _embeddings(rho):
        x, y = emb.x, emb.y
        for z in _pools(rho, 15):
            half = HalfInt.from_twice(z - 1)  # (z-1)/2
            ratios = intertwining_ratios(z, emb)
            first, second = ratios
            shifts = (first.numerator_shift, first.denominator_shift,
                      second.numerator_shift, second.denominator_shift)
            assert shifts == (half - x, half - y + 1, half + y, half + x + 1), (emb, z)
            expected = (2 if z in emb.base_jord else 0) + 2 * sum(f.order_at_zero() for f in ratios)
            assert plancherel_order_raw(z, emb) == expected, (emb, z)
            checked += 1
            fired += any(f.order_at_zero() for f in ratios)
    assert checked > 5000 and fired > 1000


@pytest.mark.parametrize("rho", [r, q], ids=["odd", "even"])
def test_pole_scan_matches_the_clamped_orders(rho):
    first = rho.blocks_upto(2)[0]
    for emb in _embeddings(rho):
        for z_max in range(-1, 16):
            got = jordan_set_from_pole_orders(emb, z_max)
            assert got == {z for z in rho.blocks_upto(z_max) if plancherel_order(z, emb) == 2}
            if z_max < first:
                assert got == frozenset()


def test_update_consumes_and_grows():
    assert jord_update(EmbeddingDatum(r, 2, 1, {1, 7})) == {5, 7}


def test_update_mirrors_nonpositive_bottom():
    assert jord_update(EmbeddingDatum(r, 2, -1, {7})) == {3, 5, 7}


def test_update_boundary_case_is_y_equal_zero():
    # at y = 0 the mirrored block 1-2y collides with 2x+1 only if x = 0
    assert jord_update(EmbeddingDatum(r, 0, 0)) == {1}
    assert jord_update(EmbeddingDatum(r, 1, 0)) == {1, 3}


def test_update_is_idempotent_on_repeats():
    # growing a block that is already present keeps a plain set
    assert jord_update(EmbeddingDatum(r, 2, -2, {5})) == {5}


def test_update_preconditions():
    with pytest.raises(PreconditionError):
        jord_update(EmbeddingDatum(r, 2, 1, {7}))  # 2y-1 = 1 missing
    with pytest.raises(PreconditionError):
        jord_update(EmbeddingDatum(r, -1, -1))  # negative top exponent


def test_update_half_integer_blocks():
    emb = EmbeddingDatum(q, HalfInt(1.5), HalfInt(1.5), {2})
    assert jord_update(emb) == {4}
    emb = EmbeddingDatum(q, HalfInt(2.5), HalfInt(-0.5), {4})
    assert jord_update(emb) == {2, 4, 6}


def _grid(rho, lo_twice, hi_twice):
    """All (x, y) with y <= x over the parity-correct half-integers."""
    step_start = lo_twice if rho.parity == ODD else lo_twice + 1
    values = [HalfInt.from_twice(t) for t in range(step_start, hi_twice + 1, 2)]
    return [(x, y) for x, y in itertools.product(values, repeat=2) if y <= x]


def _pools(rho, top):
    return [z for z in range(1, top + 1) if rho.matches_parity(z)]


@pytest.mark.parametrize("rho", [r, q], ids=["odd", "even"])
def test_both_routes_agree_on_a_small_sweep(rho):
    # the exhaustive sweep lives in the acceptance suite
    pool = _pools(rho, 7)
    for x, y in _grid(rho, -6, 6):
        for k in range(len(pool) + 1):
            for base in itertools.combinations(pool, k):
                emb = EmbeddingDatum(rho, x, y, base)
                if x.twice < 0 or (y.twice > 0 and y.twice - 1 not in emb.base_jord):
                    with pytest.raises(PreconditionError):
                        jord_update(emb)
                    continue
                assert jord_update(emb) == jordan_set_from_pole_orders(emb, 9)


def test_grown_block_always_present():
    for x, y in _grid(r, -4, 4):
        if x.twice < 0:
            continue
        base = {y.twice - 1} if y.twice > 0 else set()
        emb = EmbeddingDatum(r, x, y, base)
        assert x.twice + 1 in jord_update(emb)
