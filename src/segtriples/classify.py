"""Reduction chains and the classification bijection.

An admissible triple determines a canonical chain of subordination
steps down to an alternated triple, and conversely a valid chain over
an alternated base realizes a unique admissible triple.  The two maps
are mutually inverse; everything here is exact combinatorics.

A chain is stored base-up: the first step is the last pair removed.
Within one symbol the steps of a canonical chain are rigid: for even
blocks the lower endpoints strictly increase along the chain, for odd
blocks the upper endpoints strictly decrease.  ``chain_violations``
enforces that shape, so foreign chains are rejected before any
extension work happens.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

from .algebra import EVEN, CuspidalSymbol, SizeLimitError
from .structural import _collector_paused
from .triples import (
    _EMPTY,
    PLUS,
    CuspidalSupport,
    GapError,
    JordanTriple,
    NotAdmissibleError,
    _admissible_rows,
    _admitted_ends,
    _line,
    _pair_error,
    _parse_sign,
    _peels,
    _Record,
    _row_items,
    _set,
    _sign,
    _sign_char,
    _signed_row,
    _word,
    is_alternated,
    parse_triple,
    singles_defined,
    subordinate_reductions,
    triple_text,
    validate_triple,
)

# The most triples one enumeration builds; the largest window tested holds 104,931.
MAX_TRIPLES = 1_000_000


class InvalidChainError(ValueError):
    """A chain failed validation; the message lists the violations."""


class ChainStep(_Record):
    __slots__ = __match_args__ = ("rho", "lower", "upper", "sign")

    def __init__(self, rho: CuspidalSymbol, lower: int, upper: int, sign: int):
        _set(self, "rho", rho)
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "sign", sign)


class ReductionChain(_Record):
    """A base triple and the steps that extend it, base-up.

    Like ``JordanTriple`` it carries a mark that it is valid, set by
    ``canonical_chain`` and by a ``chain_violations`` that finds nothing
    on a tuple of steps; ``require_valid`` checks only an unmarked
    chain.  The mark is no constructor argument and takes no part in
    equality, hashing, repr or text.
    """

    __slots__ = ("base", "steps", "_valid")
    __match_args__ = ("base", "steps")

    def __init__(self, base: JordanTriple, steps: tuple):
        _set(self, "base", base)
        _set(self, "steps", steps)
        _set(self, "_valid", False)

    def require_valid(self):
        if not self._valid and (problems := chain_violations(self)):
            raise InvalidChainError("; ".join(problems))
        return self

    def __str__(self):
        return chain_text(self)


def chain_violations(chain: ReductionChain) -> list:
    """All static invariant violations, as human-readable strings.

    Interval collisions with the base, or between steps, surface later
    during realization; this checks only shape and ordering.  The check
    ignores the mark of ``require_valid``, and sets it when nothing is
    found and the steps are a tuple, which cannot change afterwards.
    """
    problems = [f"base: {p}" for p in validate_triple(chain.base)]
    if not problems and is_alternated(chain.base) is None:
        problems.append("base triple is not of alternated type")
    by_rho = {}
    for i, step in enumerate(chain.steps):
        tag = f"step {i}"
        if not isinstance(step.rho, CuspidalSymbol):
            problems.append(f"{tag}: not a cuspidal symbol")
            continue
        try:
            _sign(step.sign)
        except ValueError as exc:
            problems.append(f"{tag}: {exc}")
        if problem := _pair_error(step.rho, step.lower, step.upper):
            problems.append(f"{tag}: {problem}")
        else:
            by_rho.setdefault(step.rho, []).append(step)
    for rho, steps in sorted(by_rho.items(), key=lambda kv: kv[0].id):
        even = rho.parity == EVEN
        if any(cur.lower <= prev.lower if even else cur.upper >= prev.upper
               for prev, cur in zip(steps, steps[1:])):
            end, way = ("lower", "increase") if even else ("upper", "decrease")
            problems.append(f"{end} endpoints at {rho.id} must strictly {way} along the chain")
    _set(chain, "_valid", not problems and isinstance(chain.steps, tuple))
    return problems


def canonical_chain(t: JordanTriple) -> ReductionChain:
    """The canonical chain of an admissible triple, base-up: the pairs
    ``is_admissible`` removes, each with its free linking bit, read off
    each symbol's peel, over the survivors; only the base is built,
    sharing each row the peel left whole.  The chain is marked valid,
    so ``realize_chain`` does not check it."""
    peels = _peels(t.require_valid())
    if peels is None:
        raise NotAdmissibleError("no chain reaches an alternated triple")
    recorded, rows = [], {}
    for rho, letters, removals, kept in peels:
        recorded += [ChainStep(rho, lo, hi, bit) for lo, hi, bit in removals]
        if kept:
            rows[rho] = _signed_row(kept, letters, singles_defined(t.cusp, rho)) if removals else t.rows[rho]
    chain = ReductionChain(JordanTriple._of_rows(t.cusp, rows), tuple(reversed(recorded)))
    _set(chain, "_valid", True)
    return chain


def realize_chain(chain: ReductionChain) -> JordanTriple:
    """Fold the chain's steps over its base, base-up, into one triple.

    Each step inserts its pair with value +1 through the dominating
    extension selected by the step's sign bit.  Raises on invalid
    chains, and GapError at the first step whose interval meets a block
    already present.  A chain marked valid, as ``canonical_chain``
    builds it, is not checked again.  Each touched symbol keeps its
    sorted blocks and word (``_word``): as in ``_extend``, both new
    blocks get the step's sign where singles are defined, else that
    times the predecessor's letter, or the successor's at the lower
    boundary, or +1 on an empty row, and no other letter changes.
    Only the result is built, marked valid.
    """
    chain.require_valid()
    base = chain.base
    walks = {}
    for step in chain.steps:
        rho, lower, upper, sign = step._values
        if rho not in walks:
            row, derive = base.rows.get(rho, _EMPTY), singles_defined(base.cusp, rho)
            walks[rho] = list(row[0]), dict(_word(row, derive)), derive
        blocks, letters, derive = walks[rho]
        i = bisect_left(blocks, lower)
        if i < len(blocks) and blocks[i] <= upper:
            raise GapError(f"[{lower},{upper}] meets an existing block at {rho.id}")
        blocks[i:i] = lower, upper
        letters[lower] = letters[upper] = (
            sign if derive else sign * letters[blocks[i - 1] if i else blocks[i + 2]] if len(blocks) > 2 else PLUS)
    if not walks:
        return base
    rows = {**base.rows, **{rho: _signed_row(tuple(blocks), letters, derive)
                            for rho, (blocks, letters, derive) in walks.items()}}
    if len(rows) > len(base.rows):
        rows = dict(sorted(rows.items(), key=lambda kv: kv[0].id))
    return JordanTriple._of_rows(base.cusp, rows)


# -- enumeration ----------------------------------------------------------


def _window(symbols, max_a, max_jord, jord_sets) -> dict:
    """Each symbol's candidate block sets, in id order, in groups ``(n, how_many, sets)``
    by size n: each set ``jord_sets`` lists for it, sorted, or else, lazily,
    every set of at most ``max_jord`` blocks from ``rho.blocks_upto(max_a)``."""
    for name, bound in (("max_a", max_a), ("max_jord", max_jord)):
        if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool) or bound < 0):
            raise ValueError(f"{name} must be a nonnegative integer, got {bound!r}")
    jord_sets = jord_sets or {}
    ids = {rho.id: rho for rho in sorted(set(symbols), key=lambda s: s.id)}
    if stray := [name for name in jord_sets if name not in ids]:
        raise ValueError(f"jord_sets names {stray[0]!r} outside the symbol list")
    window = {}
    for name, rho in ids.items():
        if name in jord_sets:
            sets = [_block_set(rho, blocks, f"jord_sets[{name!r}]") for blocks in jord_sets[name]]
            window[rho] = [(len(blocks), 1, (blocks,)) for blocks in sets]
        elif max_a is None:
            raise ValueError(f"no max_a and no jord_sets entry for {name!r}")
        else:
            pool = rho.blocks_upto(max_a)
            top = len(pool) if max_jord is None else min(max_jord, len(pool))
            window[rho] = [(n, math.comb(len(pool), n), itertools.combinations(pool, n))
                           for n in range(top + 1)]
    return window


def _window_size(cusp, window) -> int:
    """The admissible triples of a ``_window``, from its admitted ends; 0 if cusp has blocks outside."""
    if any(rho not in window for rho in cusp.symbols):
        return 0
    return math.prod(sum(how_many * math.comb(n, (n + e) // 2) for n, how_many, _ in groups
                         for e in _admitted_ends(cusp, rho, n)) for rho, groups in window.items())


def _block_set(rho, blocks, where) -> tuple:
    for a in blocks:
        if problem := rho.block_error(a):
            raise ValueError(f"{where}: {problem}")
    blocks = tuple(sorted(blocks))
    if len(set(blocks)) != len(blocks):
        raise ValueError(f"{where}: duplicate block in explicit set {blocks} at {rho.id}")
    return blocks


def enumerate_admissible(cusp: CuspidalSupport, symbols, max_a=None,
                         max_jord=None, jord_sets=None) -> list:
    """All admissible triples over cusp within the given block bounds.

    The symbols are taken as a set: a repeated symbol counts once.  Per
    symbol the candidate block sets are either listed explicitly in
    ``jord_sets`` (keyed by symbol id) or are all sets of Jordan blocks
    at most ``max_a``, capped at ``max_jord`` blocks.  The result is
    sorted by canonical text: the product of the candidates each
    symbol's canonical peel admits on its own, or nothing when the
    support carries blocks at a symbol outside the list.  Raises
    ValueError when a bound is not a nonnegative integer, a
    ``jord_sets`` key names no listed symbol, a listed set holds a
    block that is not a Jordan block at its symbol or repeats one, a
    symbol has neither a ``max_a`` nor a ``jord_sets`` entry, or the
    window holds over ``MAX_TRIPLES`` triples (``SizeLimitError``, counted first).
    Each triple keeps its text, joined from items made once per row; the build
    pauses the cyclic collector: its rows, texts and triples are acyclic, so it could free none.
    """
    window = _window(symbols, max_a, max_jord, jord_sets)
    if (size := _window_size(cusp, window)) > MAX_TRIPLES:
        raise SizeLimitError(f"the window holds {size} admissible triples, over the limit of {MAX_TRIPLES}")
    if not size:
        return []
    with _collector_paused():
        per_symbol = [[rows for _, _, sets in groups for blocks in sets
                       for rows in _admissible_rows(cusp, rho, blocks)] for rho, groups in window.items()]
        items = [[_row_items(cusp, rows) for rows in survivors] for survivors in per_symbol]
        found = [JordanTriple._of_rows(cusp, {rho: row for rows in combo for rho, row in rows.items()},
                                       _line(cusp, parts))
                 for combo, parts in zip(itertools.product(*per_symbol), itertools.product(*items))]
        found.sort(key=triple_text)
    return found


def count_by_jord(cusp: CuspidalSupport, jord) -> int:
    """Admissible sign assignments on one exact block configuration, no row built."""
    return _window_size(cusp, _window(jord, None, None, {rho.id: [jord[rho]] for rho in jord}))


def dominance_edges(triples) -> list:
    """One-step subordination edges among any iterable of triples, read once.

    Returns sorted (parent_text, child_text) pairs; the caller decides
    whether the node set is closed under reduction.
    """
    texts = {t: triple_text(t) for t in triples}
    return sorted({(text, texts[red.result]) for t, text in texts.items()
                   for red in subordinate_reductions(t) if red.result in texts})


# -- canonical text form --------------------------------------------------


def chain_text(chain: ReductionChain) -> str:
    """Canonical one-line serialization; parse_chain inverts it."""
    steps = " ".join(
        f"{s.rho.id}:{s.lower}:{s.upper}:{_step_sign_text(s.sign)}"
        for s in chain.steps)
    tail = f"steps= {steps}" if steps else "steps="
    return f"base={{{triple_text(chain.base)}}} ; {tail}"


def _step_sign_text(v) -> str:
    """'+' or '-' for a sign, else repr(v), which parse_chain refuses."""
    try:
        return _sign_char(_sign(v))
    except ValueError:
        return repr(v)


def parse_chain(text: str, cusp: CuspidalSupport, symbols) -> ReductionChain:
    text = text.strip()
    if not text.startswith("base={"):
        raise ValueError("a chain record starts with base={...}")
    close = text.find("}")
    if close < 0:
        raise ValueError("unterminated base section")
    base = parse_triple(text[len("base={"):close], cusp, symbols)
    rest = text[close + 1:].strip()
    if not rest.startswith(";"):
        raise ValueError("missing steps section")
    rest = rest[1:].strip()
    if not rest.startswith("steps="):
        raise ValueError("missing steps section")
    steps = []
    for item in rest[len("steps="):].split():
        name, lo, hi, sig = item.split(":")
        if name not in symbols:
            raise ValueError(f"unknown symbol {name!r}")
        steps.append(ChainStep(symbols[name], int(lo), int(hi), _parse_sign(sig)))
    return ReductionChain(base, tuple(steps))
