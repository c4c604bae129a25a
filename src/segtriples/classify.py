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
from dataclasses import dataclass

from .algebra import CuspidalSymbol, EVEN
from .triples import (
    MINUS,
    PLUS,
    CuspidalSupport,
    JordanTriple,
    NotAdmissibleError,
    _alternation,
    _extend,
    _integer,
    _parse_sign,
    _peel,
    _sign_char,
    is_admissible,
    linking_sign,
    parse_triple,
    singles_defined,
    subordinate_reductions,
    triple_text,
    validate_triple,
)


class InvalidChainError(ValueError):
    """A chain failed validation; the message lists the violations."""


@dataclass(frozen=True)
class ChainStep:
    rho: CuspidalSymbol
    lower: int
    upper: int
    sign: int


@dataclass(frozen=True)
class ReductionChain:
    base: JordanTriple
    steps: tuple

    def require_valid(self):
        problems = chain_violations(self)
        if problems:
            raise InvalidChainError("; ".join(problems))
        return self

    def __str__(self):
        return chain_text(self)


def chain_violations(chain: ReductionChain) -> list:
    """All static invariant violations, as human-readable strings.

    Interval collisions with the base, or between steps, surface later
    during realization; this checks only shape and ordering.
    """
    problems = []
    base_problems = validate_triple(chain.base)
    if base_problems:
        problems.extend(f"base: {p}" for p in base_problems)
    elif _alternation(chain.base) is None:
        problems.append("base triple is not of alternated type")
    for i, step in enumerate(chain.steps):
        tag = f"step {i}"
        if not isinstance(step.rho, CuspidalSymbol):
            problems.append(f"{tag}: not a cuspidal symbol")
            continue
        if step.sign not in (PLUS, MINUS):
            problems.append(f"{tag}: sign {step.sign} is not +1/-1")
        if not (all(isinstance(a, int) and not isinstance(a, bool) for a in (step.lower, step.upper))
                and 1 <= step.lower < step.upper):
            problems.append(f"{tag}: need integers 1 <= lower < upper")
        for a in (step.lower, step.upper):
            if not step.rho.matches_parity(a):
                problems.append(f"{tag}: block {a} has the wrong parity for {step.rho.id}")
    by_rho = {}
    for step in chain.steps:
        if isinstance(step.rho, CuspidalSymbol):
            by_rho.setdefault(step.rho, []).append(step)
    for rho, steps in sorted(by_rho.items(), key=lambda kv: kv[0].id):
        for prev, cur in zip(steps, steps[1:]):
            if rho.parity == EVEN:
                if not cur.lower > prev.lower:
                    problems.append(
                        f"lower endpoints at {rho.id} must strictly increase along the chain")
                    break
            else:
                if not cur.upper < prev.upper:
                    problems.append(
                        f"upper endpoints at {rho.id} must strictly decrease along the chain")
                    break
    return problems


def canonical_chain(t: JordanTriple) -> ReductionChain:
    """The canonical chain of an admissible triple: the reductions of
    ``is_admissible`` with each removed pair's free linking bit, base-up."""
    reductions = is_admissible(t)
    if reductions is None:
        raise NotAdmissibleError("no chain reaches an alternated triple")
    recorded = []
    cur = t
    for red in reductions:
        recorded.append(ChainStep(red.rho, red.lower, red.upper,
                                  linking_sign(cur, red.rho, red.lower, red.upper)))
        cur = red.result
    return ReductionChain(cur, tuple(reversed(recorded)))


def realize_chain(chain: ReductionChain) -> JordanTriple:
    """Fold the chain's steps over its base, base-up.

    Each step inserts its pair with value +1 through the dominating
    extension selected by the step's sign bit.  Raises on invalid
    chains, and GapError when an inserted interval meets a block that
    is already present.
    """
    chain.require_valid()
    cur = chain.base
    for step in chain.steps:
        cur = _extend(cur, step.rho, step.lower, step.upper, step.sign)
    return cur


# -- enumeration ----------------------------------------------------------


def _sign_assignments(cusp, rho, blocks):
    """Every triple over cusp carrying exactly these sorted blocks, all
    at rho: signs on the singles where defined, else on the pairs."""
    derive = singles_defined(cusp, rho)
    keys = blocks if derive else tuple(zip(blocks, blocks[1:]))
    for bits in itertools.product((PLUS, MINUS), repeat=len(keys)):
        signs = dict(zip(keys, bits))
        row = (blocks, signs, {}) if derive else (blocks, {}, signs)
        yield JordanTriple._of_rows(cusp, {rho: row} if blocks else {})


def _block_sets(rho, max_a, max_jord, explicit):
    if explicit is not None:
        sets = []
        for blocks in explicit:
            blocks = tuple(sorted(_integer(a, "block") for a in blocks))
            for a in blocks:
                if a < 1 or not rho.matches_parity(a):
                    raise ValueError(f"block {a} is not a positive {rho.parity} block at {rho.id}")
            if len(set(blocks)) != len(blocks):
                raise ValueError(f"duplicate block in explicit set {blocks} at {rho.id}")
            sets.append(blocks)
        return sets
    if max_a is None:
        raise ValueError(f"no block bound given for {rho.id}")
    pool = [a for a in range(1, max_a + 1) if rho.matches_parity(a)]
    sets = []
    for r in range(len(pool) + 1):
        if max_jord is not None and r > max_jord:
            break
        sets.extend(itertools.combinations(pool, r))
    return sets


def enumerate_admissible(cusp: CuspidalSupport, symbols, max_a=None,
                         max_jord=None, jord_sets=None) -> list:
    """All admissible triples over cusp within the given block bounds.

    The symbols are taken as a set: a repeated symbol counts once.  Per
    symbol the candidate block sets are either listed explicitly in
    ``jord_sets`` (keyed by symbol id) or are all parity-correct
    subsets of [1, max_a], capped at ``max_jord`` blocks.  The result
    is sorted by canonical text: the product of the candidates each
    symbol's canonical peel admits on its own, or nothing when the
    support carries blocks at a symbol outside the list.
    """
    symbols = sorted(set(symbols), key=lambda s: s.id)
    jord_sets = jord_sets or {}
    per_symbol = []
    for rho in symbols:
        survivors = []
        for blocks in _block_sets(rho, max_a, max_jord, jord_sets.get(rho.id)):
            survivors += [t for t in _sign_assignments(cusp, rho, blocks)
                          if _peel(t, rho) is not None]
        per_symbol.append(survivors)
    if any(cusp.jord_of(rho) and rho not in symbols for rho in cusp.symbols):
        return []
    found = [JordanTriple._of_rows(cusp, {rho: row for t in combo for rho, row in t.rows.items()})
             for combo in itertools.product(*per_symbol)]
    found.sort(key=triple_text)
    return found


def count_by_jord(cusp: CuspidalSupport, jord) -> int:
    """Admissible sign assignments on one exact block configuration."""
    symbols = sorted(jord, key=lambda s: s.id)
    jord_sets = {rho.id: [tuple(sorted(jord[rho]))] for rho in symbols}
    return len(enumerate_admissible(cusp, symbols, jord_sets=jord_sets))


def dominance_edges(triples) -> list:
    """One-step subordination edges inside the given node set.

    Returns sorted (parent_text, child_text) pairs; the caller decides
    whether the node set is closed under reduction.  A mapping from each
    triple to its canonical text saves rendering the texts again.
    """
    texts = triples if isinstance(triples, dict) else {t: triple_text(t) for t in triples}
    edges = set()
    for t in triples:
        for red in subordinate_reductions(t):
            if red.result in texts:
                edges.add((texts[t], texts[red.result]))
    return sorted(edges)


# -- canonical text form --------------------------------------------------


def chain_text(chain: ReductionChain) -> str:
    """Canonical one-line serialization; parse_chain inverts it."""
    steps = " ".join(
        f"{s.rho.id}:{s.lower}:{s.upper}:{_sign_char(s.sign)}"
        for s in chain.steps)
    tail = f"steps= {steps}" if steps else "steps="
    return f"base={{{triple_text(chain.base)}}} ; {tail}"


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
