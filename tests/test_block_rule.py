"""One rule, one message: a Jordan block at rho is a positive integer of
rho's parity.  Every entry point that takes a block reports a bad one
with the same message body, after its own context prefix."""

import itertools
import json
from pathlib import Path

import pytest

from segtriples import (
    EVEN,
    ODD,
    PLUS,
    ChainStep,
    CuspidalSupport,
    CuspidalSymbol,
    EmbeddingDatum,
    HalfInt,
    JordanTriple,
    ReductionChain,
    chain_violations,
    count_by_jord,
    dominating_extensions,
    enumerate_admissible,
    intertwining_ratios,
    plancherel_order,
    plancherel_order_raw,
    validate_triple,
)
from segtriples.config import load_config

from helpers import run_cli

r = CuspidalSymbol("r", 1, ODD)
q = CuspidalSymbol("q", 2, EVEN)
C0 = CuspidalSupport("c0")
BASE = str(Path(__file__).parent / "fixtures" / "base.json")
SYMBOLS = [{"id": "r", "rank": 1, "parity": "odd"}, {"id": "q", "rank": 2, "parity": "even"}]
# an exponent x with 2x+1 of the symbol's parity, and a good block above
# every bad one
X = {"r": HalfInt(0), "q": HalfInt.parse("1/2")}
TOP = {"r": 9, "q": 10}

BAD_BLOCKS = [
    (r, 0, "block 0 is not a positive integer of odd parity at r"),
    (r, -1, "block -1 is not a positive integer of odd parity at r"),
    (r, 2, "block 2 is not a positive integer of odd parity at r"),
    (q, 3, "block 3 is not a positive integer of even parity at q"),
    (r, 3.7, "block 3.7 is not an integer"),
    (r, True, "block True is not an integer"),
]


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return [str(info.value)]


def _validate(rho, a, tmp_path):
    # non-integer blocks never reach validate_triple: the constructor
    # rejects them with the same message
    try:
        t = JordanTriple(C0, [(rho, a)])
    except ValueError as exc:
        return [str(exc)]
    return validate_triple(t)


def _config(rho, a, tmp_path, **sections):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"symbols": SYMBOLS, "supports": [{"id": "c0"}], **sections}))
    return _raised(lambda: load_config(path))


def _cli(rho, a, tmp_path):
    x = str(X[rho.id])
    code, out, err = run_cli(["jord-update", "--config", BASE, "--x", x, "--y", x,
                              f"--base={a}", "--rho", rho.id])
    assert code == 1 and out == ""
    return [err.removeprefix("error: ").rstrip("\n")]


ENTRY_POINTS = {
    "CuspidalSupport": ("cuspidal ", lambda rho, a, tmp_path: _raised(
        lambda: CuspidalSupport("x", {rho: [a]}))),
    "validate_triple": ("", _validate),
    "EmbeddingDatum": ("base ", lambda rho, a, tmp_path: _raised(
        lambda: EmbeddingDatum(rho, X[rho.id], X[rho.id], {a}))),
    "plancherel_order": ("", lambda rho, a, tmp_path: _raised(
        lambda: plancherel_order(a, EmbeddingDatum(rho, X[rho.id], X[rho.id])))),
    "plancherel_order_raw": ("", lambda rho, a, tmp_path: _raised(
        lambda: plancherel_order_raw(a, EmbeddingDatum(rho, X[rho.id], X[rho.id])))),
    "intertwining_ratios": ("", lambda rho, a, tmp_path: _raised(
        lambda: intertwining_ratios(a, EmbeddingDatum(rho, X[rho.id], X[rho.id])))),
    "dominating_extensions": ("", lambda rho, a, tmp_path: _raised(
        lambda: dominating_extensions(JordanTriple(C0), a, TOP[rho.id], rho))),
    "chain_violations": ("step 0: ", lambda rho, a, tmp_path: chain_violations(
        ReductionChain(JordanTriple(C0), (ChainStep(rho, a, TOP[rho.id], PLUS),)))),
    "enumerate_admissible": ("jord_sets[{id!r}]: ", lambda rho, a, tmp_path: _raised(
        lambda: enumerate_admissible(C0, [rho], jord_sets={rho.id: [[a]]}))),
    "count_by_jord": ("jord[{id!r}]: ", lambda rho, a, tmp_path: _raised(
        lambda: count_by_jord(C0, {rho: [a]}))),
    "load_config supports": ("supports: 'x': cuspidal ", lambda rho, a, tmp_path: _config(
        rho, a, tmp_path, supports=[{"id": "x", "jord": {rho.id: [a]}}])),
    "load_config jord_sets": ("bounds: jord_sets[{id!r}]: ", lambda rho, a, tmp_path: _config(
        rho, a, tmp_path, bounds={"support": "c0", "symbols": [rho.id], "jord_sets": {rho.id: [[a]]}})),
    "jord-update --base": ("base ", _cli),
}

# the command line parses --base as integers, so only integer blocks reach it
CASES = [(entry, rho, a, body)
         for entry, (rho, a, body) in itertools.product(ENTRY_POINTS, BAD_BLOCKS)
         if entry != "jord-update --base" or type(a) is int]


@pytest.mark.parametrize("entry,rho,a,body", CASES,
                         ids=[f"{c[0]}-{c[1].id}:{c[2]!r}" for c in CASES])
def test_one_message_per_bad_block(entry, rho, a, body, tmp_path):
    prefix, call = ENTRY_POINTS[entry]
    assert prefix.format(id=rho.id) + body in call(rho, a, tmp_path)


@pytest.mark.parametrize("blocks,bad", [([1, True], True), ([True, 1], True), ([1, 1.0], 1.0)])
def test_a_bad_block_is_refused_beside_its_equal(blocks, bad):
    # True == 1 == 1.0, so a set built before the check would keep
    # whichever came first and accept or refuse the input by its order
    with pytest.raises(ValueError, match=f"^cuspidal block {bad!r} is not an integer$"):
        CuspidalSupport("x", {r: blocks})
    with pytest.raises(ValueError, match=f"^base block {bad!r} is not an integer$"):
        EmbeddingDatum(r, 0, 0, blocks)
