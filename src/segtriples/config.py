"""Run configuration for the command line tool.

A config is one JSON file declaring the working pieces by name:

* ``symbols``: the cuspidal symbols, each ``{"id", "rank", "parity"}``;
* ``supports``: named cuspidal base objects with their Jordan blocks
  per symbol id, ``{"id": "c", "jord": {"r": [1, 3]}}``;
* ``bounds`` (optional): the enumeration window, ``{"support",
  "symbols", "max_a", "max_jord", "jord_sets"}``;
* ``triples`` (optional): named triples in canonical text form;
* ``expansions`` (optional): fixture tables seeding the Jacquet
  expansion of named induced towers.  Each row gives the tower
  (segments listed inside out over a support) and its extra terms; the
  mandatory leading term, the unit tensor the tower itself, is filled
  in automatically.

Loading resolves every cross reference and fails with ConfigError on
the first structural problem.  The loader checks JSON shape and cross
references only; each value rule (rank, parity, blocks, the window
bounds, duplicate fixture rows) is left to the library code that owns
it, and its error is reported as ``<section>: <name>: ...``, or as
``bounds: ...`` for the window.  Triples are parsed but not validated
here, so the check command can report semantic violations itself.
"""

from __future__ import annotations

import json
import os
import re

from .algebra import CuspidalSymbol, FormalSum, GLTerm, Segment
from .classify import _window
from .halfint import HalfInt
from .structural import ExpansionTable, GSpinTerm, induce
from .triples import CuspidalSupport, _parse_triple_record

_ID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]*$")
_SEG_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.-]*):\[([^,\[\]]+),([^,\[\]]+)\]$")


class ConfigError(ValueError):
    pass


def parse_segment_spec(text: str, symbols) -> Segment:
    """Parse ``rho:[a,b]`` with integer or half-integer endpoints."""
    m = _SEG_RE.match(text.strip())
    if not m:
        raise ValueError(f"segment {text!r} is not of the form rho:[a,b]")
    name, a, b = m.groups()
    if name not in symbols:
        raise ValueError(f"unknown symbol {name!r}")
    return Segment(symbols[name], HalfInt.parse(a), HalfInt.parse(b))


class RunConfig:
    __slots__ = ("symbols", "supports", "bounds", "triples", "expansions")

    def __init__(self, symbols, supports, bounds, triples, expansions):
        self.symbols = symbols
        self.supports = supports
        self.bounds = bounds
        self.triples = triples
        self.expansions = expansions

    def expansion_table(self) -> ExpansionTable:
        """A fresh table holding every support leaf and fixture row."""
        table = ExpansionTable()
        for name in self.supports:
            table.add_cuspidal(name)
        for node, expansion in self.expansions.items():
            table.register(node, expansion)
        return table


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _ident(value, where):
    _require(isinstance(value, str) and _ID_RE.match(value),
             f"{where}: id {value!r} must be a letter followed by [A-Za-z0-9_.-]")
    return value


def _load_symbols(raw):
    _require(isinstance(raw, list) and raw, "symbols: need a nonempty list")
    symbols = {}
    for row in raw:
        _require(isinstance(row, dict), "symbols: entries are objects")
        sid = _ident(row.get("id"), "symbols")
        _require(sid not in symbols, f"symbols: duplicate id {sid!r}")
        try:
            symbols[sid] = CuspidalSymbol(sid, row.get("rank", 1), row.get("parity"))
        except ValueError as exc:
            raise ConfigError(f"symbols: {sid!r}: {exc}") from exc
    return symbols


def _load_supports(raw, symbols):
    _require(isinstance(raw, list) and raw, "supports: need a nonempty list")
    supports = {}
    for row in raw:
        _require(isinstance(row, dict), "supports: entries are objects")
        sid = _ident(row.get("id"), "supports")
        _require(sid not in supports, f"supports: duplicate id {sid!r}")
        jord = {}
        raw_jord = row.get("jord", {})
        _require(isinstance(raw_jord, dict), f"supports: jord of {sid!r} must be an object")
        for name, blocks in raw_jord.items():
            _require(name in symbols, f"supports: {sid!r} references unknown symbol {name!r}")
            _require(isinstance(blocks, list), f"supports: blocks of {name!r} must be a list")
            jord[symbols[name]] = blocks
        try:
            supports[sid] = CuspidalSupport(sid, jord)
        except ValueError as exc:
            raise ConfigError(f"supports: {sid!r}: {exc}") from exc
    return supports


def _load_bounds(raw, symbols, supports):
    if raw is None:
        return None
    _require(isinstance(raw, dict), "bounds: must be an object")
    support = raw.get("support")
    _require(support in supports, f"bounds: unknown support {support!r}")
    names = raw.get("symbols")
    _require(isinstance(names, list) and names, "bounds: need a nonempty symbol list")
    for name in names:
        _require(name in symbols, f"bounds: unknown symbol {name!r}")
    _require(len(set(names)) == len(names), "bounds: duplicate symbol")
    jord_sets = raw.get("jord_sets") or {}
    _require(isinstance(jord_sets, dict), "bounds: jord_sets must be an object")
    for name, sets in jord_sets.items():
        _require(isinstance(sets, list) and all(isinstance(b, list) for b in sets),
                 f"bounds: jord_sets[{name!r}] must be a list of block lists")
    max_a, max_jord = raw.get("max_a"), raw.get("max_jord")
    try:
        _window([symbols[n] for n in names], max_a, max_jord, jord_sets)
    except ValueError as exc:
        raise ConfigError(f"bounds: {exc}") from exc
    return {
        "support": support,
        "symbols": list(names),
        "max_a": max_a,
        "max_jord": max_jord,
        "jord_sets": jord_sets,
    }


def _tower(spec, symbols, supports, where) -> GSpinTerm:
    _require(isinstance(spec, dict), f"{where}: an object spec is a JSON object")
    base = spec.get("base")
    _require(base in supports, f"{where}: unknown support {base!r}")
    segments = spec.get("segments", [])
    _require(isinstance(segments, list), f"{where}: segments must be a list")
    obj = GSpinTerm.cuspidal(base)
    for text in segments:
        _require(isinstance(text, str), f"{where}: segment specs are strings")
        try:
            obj = induce(parse_segment_spec(text, symbols), obj)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return obj


def _load_expansions(raw, symbols, supports):
    if raw is None:
        return {}
    _require(isinstance(raw, list), "expansions: must be a list of fixture rows")
    rows = {}
    scratch = ExpansionTable()
    for name in supports:
        scratch.add_cuspidal(name)
    for i, row in enumerate(raw):
        where = f"expansions[{i}]"
        _require(isinstance(row, dict), f"{where}: rows are objects")
        node = _tower(row.get("object"), symbols, supports, where)
        terms = {(GLTerm.unit(), node): 1}
        raw_terms = row.get("terms", [])
        _require(isinstance(raw_terms, list), f"{where}: terms must be a list")
        for j, term in enumerate(raw_terms):
            at = f"{where}.terms[{j}]"
            _require(isinstance(term, dict), f"{at}: terms are objects")
            coeff = term.get("coeff", 1)
            _require(isinstance(coeff, int) and not isinstance(coeff, bool) and coeff >= 1,
                     f"{at}: coeff must be a positive integer")
            gl_specs = term.get("gl", [])
            _require(isinstance(gl_specs, list), f"{at}: gl must be a list of segment specs")
            segs = []
            for text in gl_specs:
                _require(isinstance(text, str), f"{at}: segment specs are strings")
                try:
                    segs.append(parse_segment_spec(text, symbols))
                except ValueError as exc:
                    raise ConfigError(f"{at}: {exc}") from exc
            key = (GLTerm.of(*segs), _tower(term.get("object"), symbols, supports, at))
            terms[key] = terms.get(key, 0) + coeff
        try:
            expansion = FormalSum(terms)
            scratch.register(node, expansion)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        rows[node] = expansion
    return rows


def _load_triples(raw, symbols, supports):
    if raw is None:
        return {}
    _require(isinstance(raw, dict), "triples: must be an object of name -> text")
    triples = {}
    for name, text in raw.items():
        _ident(name, "triples")
        _require(isinstance(text, str), f"triples: {name!r} must be a string")
        try:
            triples[name] = _parse_triple_record(text, supports, symbols)
        except ValueError as exc:
            raise ConfigError(f"triples: {name!r}: {exc}") from exc
    return triples


def load_config(path) -> RunConfig:
    try:
        with open(os.fspath(path)) as file:
            raw = json.load(file)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config: top level must be an object")
    known = {"symbols", "supports", "bounds", "triples", "expansions"}
    for key in raw:
        _require(key in known, f"config: unknown section {key!r}")
    symbols = _load_symbols(raw.get("symbols"))
    supports = _load_supports(raw.get("supports"), symbols)
    bounds = _load_bounds(raw.get("bounds"), symbols, supports)
    triples = _load_triples(raw.get("triples"), symbols, supports)
    expansions = _load_expansions(raw.get("expansions"), symbols, supports)
    return RunConfig(symbols, supports, bounds, triples, expansions)

