"""Differential oracle for admissibility and enumeration.

The library decides admissibility by the canonical peel, run symbol by
symbol, and enumerates a window as the product of each symbol's
survivors.  The reference here is the search it replaced: depth-first
over every subordination step, and an enumerator that pushes the whole
joint product of block sets and sign assignments through that search.
The two must agree on every candidate of every window.
"""

import itertools

import pytest

from segtriples import (
    EVEN,
    MINUS,
    ODD,
    PLUS,
    CuspidalSupport,
    CuspidalSymbol,
    enumerate_admissible,
    is_admissible,
    is_alternated,
    make_triple,
    reduce_at,
    singles_defined,
    subordinate_reductions,
    triple_text,
)

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0")
C1 = CuspidalSupport("c1", {r: {1}})
C17 = CuspidalSupport("c17", {r: {1, 7}})
BOTH = CuspidalSupport("cb", {r: {3}, q: {2}})


def reference_admissible(t, memo):
    """Whether some chain of subordination steps ends in an alternated
    triple; ``memo`` is shared across one window."""
    if t not in memo:
        memo[t] = is_alternated(t) is not None or any(
            reference_admissible(red.result, memo) for red in subordinate_reductions(t))
    return memo[t]


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
        chain = is_admissible(t)
        assert (chain is not None) == reference_admissible(t, memo), triple_text(t)
        if chain is None:
            continue
        cur = t
        for red in chain:
            assert red.result == reduce_at(cur, red.rho, red.lower, red.upper)
            cur = red.result
        assert is_alternated(cur) is not None
        admitted.append(t)
    admitted.sort(key=triple_text)
    assert enumerate_admissible(cusp, symbols, **bounds) == admitted


def test_support_blocks_outside_the_window_admit_nothing():
    cusp, symbols, bounds = WINDOWS["c17 [q] max_a=8"]
    assert enumerate_admissible(cusp, symbols, **bounds) == []


def test_enumeration_count_at_max_a_11():
    assert len(enumerate_admissible(C0, [r, q], max_a=11)) == 13536
