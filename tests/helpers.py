"""Checking utilities shared between the module tests and the
acceptance suite."""

import contextlib
import gc
import io

from segtriples import (
    PLUS,
    FormalSum,
    GLTerm,
    ODD,
    CuspidalSymbol,
    comult,
    is_alternated,
    make_triple,
    reduce_at,
)
from segtriples.cli import main


_R = CuspidalSymbol("r", 1, ODD)


def odd_triple(cusp, blocks, singles=None, pairs=None):
    """A triple over cusp with blocks only at the odd symbol r, its
    singles keyed by block and its pairs by (lower, upper)."""
    return make_triple(cusp,
                       [(_R, a) for a in blocks],
                       {(_R, a): v for a, v in (singles or {}).items()},
                       {(_R, lo, hi): v for (lo, hi), v in (pairs or {}).items()})


def comult_gl(term):
    """The comultiplication extended multiplicatively to a GL term."""
    out = FormalSum.of((GLTerm.unit(), GLTerm.unit()))
    for seg in term.segments:
        out = out * comult(seg)
    return out


def coassoc_sides(seg):
    """Both triple-tensor refinements of m*(seg), as term dicts.

    Splitting the left leg again must agree with splitting the right
    leg again; the caller asserts the two dicts are equal.
    """
    left = {}
    right = {}
    for (l, r), c in comult(seg).terms:
        for (u, v), d in comult_gl(l).terms:
            key = (u, v, r)
            left[key] = left.get(key, 0) + c * d
        for (u, v), d in comult_gl(r).terms:
            key = (l, u, v)
            right[key] = right.get(key, 0) + c * d
    return left, right


def gap_insertions(t, rho, top):
    """Every (a, b) insertion interval at rho with blocks of the right
    parity, a < b <= top, and no existing block inside [a, b]."""
    blocks = set(t.jord_of(rho))
    start = 1 if rho.parity == ODD else 2
    out = []
    for a in range(start, top + 1, 2):
        if a in blocks:
            continue
        for b in range(a + 2, top + 1, 2):
            if b in blocks:
                break
            out.append((a, b))
    return out


def condition3_checks(t, chain):
    """Replay the chain top-down from t and recompute every bridge.

    At each removal whose pair has neighbours on both sides, the
    reduced triple's bridging pair must equal the product of the two
    crossing pairs.  Returns how many bridges were recomputed.
    """
    checked = 0
    cur = t
    for step in reversed(chain.steps):
        blocks = cur.jord_of(step.rho)
        pred = max((x for x in blocks if x < step.lower), default=None)
        succ = min((x for x in blocks if x > step.upper), default=None)
        nxt = reduce_at(cur, step.rho, step.lower, step.upper)
        if pred is not None and succ is not None:
            expected = (cur.pair(step.rho, pred, step.lower)
                        * cur.pair(step.rho, step.upper, succ))
            assert nxt.pair(step.rho, pred, succ) == expected
            checked += 1
        cur = nxt
    assert is_alternated(cur) is not None
    return checked


def reference_text(t):
    """The canonical line of the valid t, written from its public accessors
    alone, as the library's writer is checked against: per section, each
    symbol in id order, its blocks lowest first, each single where one is
    defined, and each adjacent pair with its sign."""
    def sign(v):
        return "+" if v == PLUS else "-"

    blocks = [(rho, a) for rho in sorted(t.symbols, key=lambda s: s.id) for a in sorted(t.jord_of(rho))]
    jord = [f" {rho.id}:{a}" for rho, a in blocks]
    single = [f" {rho.id}:{a}:{sign(v)}" for rho, a in blocks if (v := t.single(rho, a)) is not None]
    pair = [f" {rho.id}:{lo}:{hi}:{sign(v)}"
            for (rho, lo, hi), v in sorted(t.pairs, key=lambda kv: (kv[0][0].id, kv[0][1]))]
    return f"cusp={t.cusp.id} ; jord={''.join(jord)} ; single={''.join(single)} ; pair={''.join(pair)}"


def run_cli(argv):
    """Run the command line entry point in-process.

    Returns (exit_code, stdout, stderr).  Argument-parsing failures
    surface as SystemExit and are mapped to their exit code.  Stdout is
    a text stream over bytes, as a process's is, so a command may write
    to its ``buffer``.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def collections_during(call):
    """The cyclic collections that start while call() runs, and its result.
    A full collection first clears the young count, so none is owed before."""
    gc.collect()
    before = sum(gen["collections"] for gen in gc.get_stats())
    result = call()
    return sum(gen["collections"] for gen in gc.get_stats()) - before, result
