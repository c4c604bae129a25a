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
extension work happens.  A ``ChainStep`` is a named tuple of its
fields, as ``triples._Record`` sets out; a ``ReductionChain`` is a
frozen slotted value with a validity mark.  Realizing a chain is
``triples._grown`` over its base, the rule that grows every triple.  An
enumeration takes each symbol's admitted rows and their texts from one
``triples._admitted`` call over the symbol's size groups of ``_window``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import attrgetter

from .algebra import EVEN, CuspidalSymbol, SizeLimitError, _immutable
from .structural import _collector_paused
from .triples import (
    CuspidalSupport,
    JordanTriple,
    NotAdmissibleError,
    _admitted,
    _admitted_ends,
    _checked,
    _grown,
    _item,
    _line,
    _new,
    _pair_error,
    _peels,
    _Record,
    _sign,
    _text_items,
    is_alternated,
    parse_triple,
    subordinate_reductions,
    triple_text,
    validate_triple,
)

# The most triples one enumeration builds; the largest window tested holds 104,931.
MAX_TRIPLES = 1_000_000


class InvalidChainError(ValueError):
    """A chain failed validation; the message lists the violations."""


class ChainStep(_Record, namedtuple("ChainStep", "rho lower upper sign")):
    """One step of a chain: insert the pair (lower, upper) at rho with the
    linking bit sign; a record as ``triples._Record`` sets out."""

    __slots__ = ()


class ReductionChain:
    """A base triple and the steps that extend it, base-up, frozen: equal
    only to a chain of its own class with equal fields, hashed to agree.

    A chain carries a mark that it is valid, set by ``canonical_chain``
    and by a ``chain_violations`` that finds nothing on a tuple of
    steps; ``require_valid`` checks only an unmarked chain.  The mark is
    no constructor argument and takes no part in equality, hashing, repr
    or text.  ``canonical_chain`` fills the three slots through their
    descriptors, with no constructor call.
    """

    __slots__ = ("base", "steps", "_valid")
    __match_args__ = ("base", "steps")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, base: JordanTriple, steps: tuple):
        _set_base(self, base)
        _set_steps(self, steps)
        _set_valid(self, False)

    def require_valid(self):
        if not self._valid and (problems := chain_violations(self)):
            raise InvalidChainError("; ".join(problems))
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.steps == other.steps

    def __hash__(self):
        return hash((self.base, self.steps))

    def __repr__(self):
        return f"{type(self).__qualname__}(base={self.base!r}, steps={self.steps!r})"

    def __str__(self):
        return chain_text(self)


_set_base = ReductionChain.base.__set__
_set_steps = ReductionChain.steps.__set__
_set_valid = ReductionChain._valid.__set__


def chain_violations(chain: ReductionChain) -> list:
    """All static invariant violations, as human-readable strings.

    Interval collisions with the base, or between steps, surface later
    during realization; this checks only shape and ordering.  The check
    ignores the mark of ``require_valid``, and sets it when nothing is
    found and the steps are a tuple, which cannot change afterwards.
    """
    if isinstance(chain.base, JordanTriple):
        problems = [f"base: {p}" for p in validate_triple(chain.base)]
    else:
        problems = ["base: not a JordanTriple"]
    if not problems and is_alternated(chain.base) is None:
        problems.append("base triple is not of alternated type")
    by_rho = {}
    for i, step in enumerate(chain.steps):
        tag = f"step {i}"
        if not isinstance(step, ChainStep):
            problems.append(f"{tag}: not a ChainStep")
            continue
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
    _set_valid(chain, not problems and isinstance(chain.steps, tuple))
    return problems


def canonical_chain(t: JordanTriple) -> ReductionChain:
    """The canonical chain of an admissible triple, base-up: the pairs
    ``is_admissible`` removes, each with its free linking bit, read off
    each symbol's peel, over the survivors; only the base is built, from
    the rows the peel keeps as they are, sharing each row it left whole.
    The chain is marked valid, so ``realize_chain`` does not check it;
    each step is made by one ``tuple.__new__`` call, and the chain's
    slots, mark included, are filled with no constructor call."""
    peels = _peels(_checked(t, JordanTriple, "t").require_valid())
    if peels is None:
        raise NotAdmissibleError("no chain reaches an alternated triple")
    recorded, rows = [], {}
    for rho, removals, kept in peels:
        for removal in removals:
            recorded.append(_new(ChainStep, (rho, *removal)))
        if kept[0]:
            rows[rho] = kept
    recorded.reverse()
    chain = object.__new__(ReductionChain)
    _set_base(chain, JordanTriple._of_rows(t.cusp, rows))
    _set_steps(chain, tuple(recorded))
    _set_valid(chain, True)
    return chain


def realize_chain(chain: ReductionChain) -> JordanTriple:
    """Fold the chain's steps over its base, base-up, into one triple.

    Each step inserts its pair with value +1 through the dominating
    extension selected by the step's sign bit: ``triples._grown`` folds
    every step over the base at once, where ``dominating_extensions``
    grows by one.  Raises on invalid chains, and GapError at the first
    step whose interval meets a block already present.  A chain marked
    valid, as ``canonical_chain`` builds it, is not checked again.
    """
    return _grown(chain.require_valid().base, chain.steps)


# -- enumeration ----------------------------------------------------------


def _window(symbols, max_a, max_jord, jord_sets) -> dict:
    """Each symbol's candidate block sets, in id order, in groups ``(n, how_many, sets)``
    by size n, smallest first: each set ``jord_sets`` lists for it, sorted, as often as it is
    listed, or else, lazily, every set of at most ``max_jord`` blocks from ``rho.blocks_upto(max_a)``."""
    for name, bound in (("max_a", max_a), ("max_jord", max_jord)):
        if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool) or bound < 0):
            raise ValueError(f"{name} must be a nonnegative integer, got {bound!r}")
    jord_sets = jord_sets or {}
    ids = {rho.id: rho for rho in sorted(_symbol_set(symbols), key=lambda s: s.id)}
    if stray := [name for name in jord_sets if name not in ids]:
        raise ValueError(f"jord_sets names {stray[0]!r} outside the symbol list")
    window = {}
    for name, rho in ids.items():
        if name in jord_sets:
            by_size = {}
            for blocks in jord_sets[name]:
                blocks = _block_set(rho, blocks, f"jord_sets[{name!r}]")
                by_size.setdefault(len(blocks), []).append(blocks)
            window[rho] = [(n, len(sets), sets) for n, sets in sorted(by_size.items())]
        elif max_a is None:
            raise ValueError(f"no max_a and no jord_sets entry for {name!r}")
        else:
            pool = rho.blocks_upto(max_a)
            top = len(pool) if max_jord is None else min(max_jord, len(pool))
            window[rho] = [(n, math.comb(len(pool), n), itertools.combinations(pool, n))
                           for n in range(top + 1)]
    return window


def _symbol_set(symbols) -> set:
    """The symbols as a set, or TypeError when one is no CuspidalSymbol."""
    symbols = set(symbols)
    if not all(isinstance(rho, CuspidalSymbol) for rho in symbols):
        raise TypeError("symbols must be CuspidalSymbol objects")
    return symbols


def _window_size(cusp, window) -> int:
    """The admissible triples of a ``_window``, from its admitted ends; 0 if cusp has blocks outside."""
    if any(rho not in window for rho in _checked(cusp, CuspidalSupport, "cusp").symbols):
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
    window holds over ``MAX_TRIPLES`` triples (``SizeLimitError``, counted first),
    and TypeError, before any is read, when a symbol is no CuspidalSymbol or cusp no CuspidalSupport.
    Each triple keeps its text, joined by ``_line`` from items ``_admitted`` writes once per
    block set over each symbol's size groups, and the result is sorted by it; a window of
    one symbol shares each row map it admits as the triple's rows; the build
    pauses the cyclic collector: its rows, texts and triples are acyclic, so it could free none,
    and on the way out it moves them, with every other tracked object, to the oldest
    generation, as ``structural`` sets out, so no young pass walks them after the call.
    """
    window = _window(symbols, max_a, max_jord, jord_sets)
    if (size := _window_size(cusp, window)) > MAX_TRIPLES:
        raise SizeLimitError(f"the window holds {size} admissible triples, over the limit of {MAX_TRIPLES}")
    if not size:
        return []
    with _collector_paused():
        per_symbol = [_admitted(cusp, rho, groups) for rho, groups in window.items()]
        found = [JordanTriple._of_rows(cusp, _merged(combo), _line(cusp, parts))
                 for combo, parts in zip(itertools.product(*(rows for rows, _ in per_symbol)),
                                         itertools.product(*(items for _, items in per_symbol)))]
        found.sort(key=attrgetter("_text"))
    return found


def _merged(maps) -> dict:
    """One dict of the row maps, whose symbols differ: the one map itself, shared as ``_of_rows``
    shares rows, else a new dict, whose ``update`` reuses their stored hashes."""
    if len(maps) == 1:
        return maps[0]
    out = {}
    for rows in maps:
        out.update(rows)
    return out


def count_by_jord(cusp: CuspidalSupport, jord) -> int:
    """Admissible sign assignments on one exact block configuration, no row built."""
    window = {}
    for rho in sorted(_symbol_set(jord), key=lambda s: s.id):
        blocks = _block_set(rho, jord[rho], f"jord[{rho.id!r}]")
        window[rho] = [(len(blocks), 1, (blocks,))]
    return _window_size(cusp, window)


def dominance_edges(triples) -> list:
    """One-step subordination edges among any iterable of triples, read once.

    Returns sorted (parent_text, child_text) pairs; the caller decides
    whether the node set is closed under reduction.
    """
    texts = {t: triple_text(t) for t in triples}
    return sorted({(text, child) for t, text in texts.items()
                   for red in subordinate_reductions(t) if (child := texts.get(red.result)) is not None})


# -- canonical text form --------------------------------------------------


def chain_text(chain: ReductionChain) -> str:
    """Canonical one-line serialization; parse_chain inverts it."""
    steps = "".join(_item(s.rho, (s.lower, s.upper), s.sign) for s in chain.steps)
    return f"base={{{triple_text(chain.base)}}} ; steps={steps}"


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
    return ReductionChain(base, tuple(ChainStep(*fields)
                                      for fields in _text_items(rest, "steps", "rho:lo:hi:sign", symbols)))
