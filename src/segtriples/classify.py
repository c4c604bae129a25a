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
    _peel,
    is_admissible,
    linking_sign,
    make_triple,
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
        if not (isinstance(step.lower, int) and isinstance(step.upper, int)
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
    """Every triple over cusp carrying exactly these blocks, all at rho."""
    jord = [(rho, a) for a in blocks]
    if singles_defined(cusp, rho):
        for bits in itertools.product((PLUS, MINUS), repeat=len(jord)):
            yield make_triple(cusp, jord, dict(zip(jord, bits)))
    else:
        adjacent = [(rho, lo, hi) for lo, hi in zip(blocks, blocks[1:])]
        for bits in itertools.product((PLUS, MINUS), repeat=len(adjacent)):
            yield JordanTriple(cusp, jord, pairs=dict(zip(adjacent, bits)))


def _block_sets(rho, max_a, max_jord, explicit):
    if explicit is not None:
        sets = []
        for blocks in explicit:
            blocks = tuple(sorted(int(a) for a in blocks))
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

    Per symbol the candidate block sets are either listed explicitly in
    ``jord_sets`` (keyed by symbol id) or are all parity-correct
    subsets of [1, max_a], capped at ``max_jord`` blocks.  The result
    is sorted by canonical text: the product of the candidates each
    symbol's canonical peel admits on its own, or nothing when the
    support carries blocks at a symbol outside the list.
    """
    symbols = sorted(symbols, key=lambda s: s.id)
    jord_sets = jord_sets or {}
    per_symbol = []
    for rho in symbols:
        survivors = []
        for blocks in _block_sets(rho, max_a, max_jord, jord_sets.get(rho.id)):
            for a in blocks:
                if not rho.matches_parity(a):
                    raise ValueError(f"block {a} has the wrong parity for {rho.id}")
            survivors += [t for t in _sign_assignments(cusp, rho, blocks)
                          if _peel(t, rho) is not None]
        per_symbol.append(survivors)
    if any(cusp.jord_of(rho) and rho not in symbols for rho in cusp.symbols):
        return []
    found = [JordanTriple(cusp, [e for t in combo for e in t.jord],
                          dict(kv for t in combo for kv in t.singles),
                          dict(kv for t in combo for kv in t.pairs))
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
        f"{s.rho.id}:{s.lower}:{s.upper}:{'+' if s.sign == PLUS else '-'}"
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
        sign = PLUS if sig == "+" else MINUS if sig == "-" else None
        if sign is None:
            raise ValueError(f"not a sign: {sig!r}")
        steps.append(ChainStep(symbols[name], int(lo), int(hi), sign))
    return ReductionChain(base, tuple(steps))
