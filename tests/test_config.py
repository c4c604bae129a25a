import json

import pytest

from segtriples import CuspidalSymbol, HalfInt, InvalidTripleError, ODD, validate_triple
from segtriples.config import (
    ConfigError,
    load_config,
    parse_segment_spec,
)

MINIMAL = {
    "symbols": [{"id": "r", "rank": 1, "parity": "odd"}],
    "supports": [{"id": "c0"}],
}


def write(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_minimal_config(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert set(cfg.symbols) == {"r"}
    assert cfg.symbols["r"].parity == "odd"
    assert cfg.supports["c0"].jord_of(cfg.symbols["r"]) == frozenset()
    assert cfg.bounds is None and cfg.triples == {} and cfg.expansions == {}


def test_segment_spec_parsing():
    cfg_symbols = {"r": CuspidalSymbol("r", 1, ODD)}
    seg = parse_segment_spec("r:[-1/2,1/2]", cfg_symbols)
    assert seg.a == HalfInt(-0.5) and seg.b == HalfInt(0.5)
    with pytest.raises(ValueError):
        parse_segment_spec("r:[0;1]", cfg_symbols)
    with pytest.raises(ValueError):
        parse_segment_spec("zz:[0,1]", cfg_symbols)
    with pytest.raises(ValueError):
        parse_segment_spec("r:[0,x]", cfg_symbols)


def test_unknown_sections_are_rejected(tmp_path):
    data = dict(MINIMAL, extra={})
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, data))


def test_symbol_validation(tmp_path):
    data = {"symbols": [{"id": "r", "parity": "diagonal"}], "supports": []}
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, data))
    data = {"symbols": [{"id": "r"}, {"id": "r"}], "supports": []}
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, data))
    data = {"symbols": [{"id": "r", "rank": 0, "parity": "odd"}], "supports": []}
    with pytest.raises(ConfigError, match="^symbols: 'r': rank must be a positive integer"):
        load_config(write(tmp_path, data))


def test_support_references_known_symbols(tmp_path):
    data = dict(MINIMAL, supports=[{"id": "c0", "jord": {"zz": [1]}}])
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, data))
    data = dict(MINIMAL, supports=[{"id": "x", "jord": {"r": [2]}}])
    with pytest.raises(ConfigError, match="^supports: 'x': "):
        load_config(write(tmp_path, data))


def test_bounds_need_a_window(tmp_path):
    data = dict(MINIMAL, bounds={"support": "c0", "symbols": ["r"]})
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, data))
    data = dict(MINIMAL, bounds={"support": "c0", "symbols": ["r"], "max_a": 3})
    cfg = load_config(write(tmp_path, data))
    assert cfg.bounds["max_a"] == HalfInt(3)
    for bounds, fragment in (
            ({"max_a": 3, "max_jord": -1}, "^bounds: max_jord must be"),
            ({"max_a": 3.5}, "^bounds: max_a must be a nonnegative integer"),
            ({"max_a": 3, "jord_sets": {"rr": [[1]]}},
             "^bounds: jord_sets names 'rr' outside the symbol list$"),
            ({}, "^bounds: no max_a and no jord_sets entry for 'r'$"),
            ({"max_a": 3, "symbols": ["r", "r"]}, "^bounds: duplicate symbol"),
            ({"jord_sets": {"r": [[1, 1]]}}, r"^bounds: jord_sets\['r'\]: duplicate block"),
            ({"jord_sets": {"r": [[2]]}}, r"^bounds: jord_sets\['r'\]: block 2 is not")):
        data = dict(MINIMAL, bounds={"support": "c0", "symbols": ["r"], **bounds})
        with pytest.raises(ConfigError, match=fragment):
            load_config(write(tmp_path, data))


def test_triples_parse_but_are_not_semantically_checked(tmp_path):
    data = dict(MINIMAL, triples={
        "odd": "cusp=c0 ; jord= r:1 ; single= ; pair=",
    })
    cfg = load_config(write(tmp_path, data))
    # the missing single is a semantic problem left to the check command
    t = cfg.triples["odd"]
    assert str(t) == "cusp=c0 ; jord= r:1 ; single= ; pair="
    assert validate_triple(t) == ["missing single sign on r:1"]
    with pytest.raises(InvalidTripleError, match="^missing single sign on r:1$"):
        t.jord_of(cfg.symbols["r"])


@pytest.mark.parametrize("text,fragment", [
    ("jord= ; single= ; pair=", "starts with cusp="),
    ("cusp=nope ; jord= ; single= ; pair=", "unknown support"),
])
def test_triples_name_a_known_support(tmp_path, text, fragment):
    data = dict(MINIMAL, triples={"t": text})
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, data))


def test_a_malformed_triple_item_is_a_config_error(tmp_path):
    data = dict(MINIMAL, triples={"t": "cusp=c0 ; jord= r:1 r:3 ; single= ; pair= r:1:3"})
    with pytest.raises(ConfigError, match=r"^triples: 't': pair item 'r:1:3': expected rho:lo:hi:sign$"):
        load_config(write(tmp_path, data))


def test_expansion_rows_must_target_stacked_objects(tmp_path):
    data = dict(MINIMAL, expansions=[{
        "object": {"segments": [], "base": "c0"},
        "terms": [],
    }])
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, data))
    row = {"object": {"segments": ["r:[0,0]"], "base": "c0"}, "terms": []}
    data = dict(MINIMAL, expansions=[row, row])
    with pytest.raises(ConfigError, match=r"^expansions\[1\]: an expansion for .* is already registered"):
        load_config(write(tmp_path, data))


@pytest.mark.parametrize("row, message", [
    ({"object": {"segments": ["r:[0,1/2]"], "base": "c0"}, "terms": []},
     r"^expansions\[0\]: segment endpoints must differ by an integer: a=0, b=1/2$"),
    ({"object": {"segments": ["r:[0,0]"], "base": "c0"},
      "terms": [{"gl": ["x:[0,0]"], "object": {"segments": [], "base": "c0"}}]},
     r"^expansions\[0\]\.terms\[0\]: unknown symbol 'x'$"),
], ids=["tower segment", "term segment"])
def test_expansion_rows_name_a_bad_segment(tmp_path, row, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, dict(MINIMAL, expansions=[row])))


def test_expansion_rows_reject_bad_coefficients(tmp_path):
    data = dict(MINIMAL, expansions=[{
        "object": {"segments": ["r:[0,0]"], "base": "c0"},
        "terms": [{"coeff": 0, "gl": ["r:[0,0]"],
                   "object": {"segments": [], "base": "c0"}}],
    }])
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, data))

