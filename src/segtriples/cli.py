"""Command line front end.

Every subcommand takes --config pointing at a JSON run configuration
(see config.py) and prints deterministic plain text, so outputs can be
diffed across runs.  Exit status: 0 on success, 1 on a domain error
(invalid triple, inadmissible input, precondition failure), 2 on a
usage or config error (bad flags, unknown names, malformed specs).
"""

from __future__ import annotations

import argparse
import sys

from .algebra import EVEN, ODD, CuspidalSymbol, render_term
from .classify import (
    canonical_chain,
    chain_text,
    dominance_edges,
    enumerate_admissible,
)
from .config import ConfigError, RunConfig, load_config, parse_segment_spec
from .halfint import HalfInt
from .lcalc import EmbeddingDatum, jord_update
from .structural import GSpinTerm, expand_induced, induce
from .triples import (
    NotAdmissibleError,
    _parse_triple_record,
    subordinate_reductions,
    triple_text,
    validate_triple,
)


class UsageError(ValueError):
    """Bad command line input: unknown name or malformed spec."""


def _support(cfg: RunConfig, name: str):
    try:
        return cfg.supports[name]
    except KeyError:
        raise UsageError(f"unknown support {name!r}") from None


def _symbol(cfg: RunConfig, name: str) -> CuspidalSymbol:
    try:
        return cfg.symbols[name]
    except KeyError:
        raise UsageError(f"unknown symbol {name!r}") from None


def _resolve_triple(cfg: RunConfig, args):
    if getattr(args, "triple", None) is not None:
        try:
            return cfg.triples[args.triple]
        except KeyError:
            raise UsageError(f"no triple named {args.triple!r} in the config") from None
    try:
        return _parse_triple_record(args.text, cfg.supports, cfg.symbols)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _segment(cfg: RunConfig, text: str):
    try:
        return parse_segment_spec(text, cfg.symbols)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- subcommands -----------------------------------------------------------


def _cmd_mu_star(cfg: RunConfig, args) -> int:
    _support(cfg, args.sigma)
    table = cfg.expansion_table()
    obj = GSpinTerm.cuspidal(args.sigma)
    expansion = None
    for text in args.seg:
        seg = _segment(cfg, text)
        expansion = expand_induced(seg, obj, table)
        obj = induce(seg, obj)
    for term, coeff in expansion.terms:
        print(render_term(term, coeff))
    return 0


def _enumerate(cfg: RunConfig) -> list:
    if cfg.bounds is None:
        raise ConfigError("this command needs a bounds section in the config")
    return enumerate_admissible(cfg.supports[cfg.bounds["support"]],
                                [cfg.symbols[n] for n in cfg.bounds["symbols"]],
                                cfg.bounds["max_a"], cfg.bounds["max_jord"],
                                cfg.bounds["jord_sets"])


def _cmd_enumerate(cfg: RunConfig, args) -> int:
    for t in _enumerate(cfg):
        print(triple_text(t))
    return 0


def _cmd_check(cfg: RunConfig, args) -> int:
    t = _resolve_triple(cfg, args)
    problems = validate_triple(t)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return 1
    try:
        chain = canonical_chain(t)
    except NotAdmissibleError:
        print("not admissible")
        return 0
    step = "step" if len(chain.steps) == 1 else "steps"
    print(f"admissible, {len(chain.steps)} {step}")
    print(chain_text(chain))
    return 0


def _cmd_reduce(cfg: RunConfig, args) -> int:
    t = _resolve_triple(cfg, args)
    for red in subordinate_reductions(t):
        print(f"{red.rho.id}:{red.lower}:{red.upper} -> {triple_text(red.result)}")
    return 0


def _cmd_chain(cfg: RunConfig, args) -> int:
    t = _resolve_triple(cfg, args)
    print(chain_text(canonical_chain(t)))
    return 0


def _cmd_jord_update(cfg: RunConfig, args) -> int:
    try:
        x = HalfInt.parse(args.x)
        y = HalfInt.parse(args.y)
        blocks = frozenset(int(part) for part in args.base.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.rho is not None:
        rho = _symbol(cfg, args.rho)
    else:
        rho = CuspidalSymbol("auto", 1, ODD if x.is_integer else EVEN)
    updated = jord_update(EmbeddingDatum(rho, x, y, blocks))
    print("{" + ", ".join(str(a) for a in sorted(updated)) + "}")
    return 0


def _cmd_dominance_dag(cfg: RunConfig, args) -> int:
    texts = {t: triple_text(t) for t in _enumerate(cfg)}
    print("digraph dominance {")
    for text in texts.values():
        print(f'  "{text}";')
    for parent, child in dominance_edges(texts):
        print(f'  "{parent}" -> "{child}";')
    print("}")
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run configuration")

    parser = argparse.ArgumentParser(
        prog="segtriples",
        description="segment algebra, Jacquet expansions and Jordan triple classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu-star", parents=[common],
                       help="expand an induced tower into its Jacquet module terms")
    p.add_argument("--sigma", required=True, help="support id the tower sits over")
    p.add_argument("--seg", action="append", required=True, metavar="RHO:[A,B]",
                   help="segment to induce; repeat to build a tower, innermost first")
    p.set_defaults(func=_cmd_mu_star)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list admissible triples within the config's bounds")
    p.set_defaults(func=_cmd_enumerate)

    def triple_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--triple", help="name of a triple from the config")
        group.add_argument("--text", help="triple in canonical text form")

    p = sub.add_parser("check", parents=[common],
                       help="validate a triple and report admissibility")
    triple_source(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", parents=[common],
                       help="list the one-step subordinations of a triple")
    triple_source(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("chain", parents=[common],
                       help="print the canonical reduction chain of a triple")
    triple_source(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("jord-update", parents=[common],
                       help="update a Jordan block set from an embedding datum")
    p.add_argument("--x", required=True, help="top exponent, an integer or half integer")
    p.add_argument("--y", required=True, help="bottom exponent, an integer or half integer")
    p.add_argument("--base", default="", metavar="BLOCKS",
                   help="comma separated blocks of the base, may be empty")
    p.add_argument("--rho", help="symbol id; inferred from the parity of x when omitted")
    p.set_defaults(func=_cmd_jord_update)

    p = sub.add_parser("dominance-dag", parents=[common],
                       help="DOT digraph of one-step reductions inside the enumeration")
    p.set_defaults(func=_cmd_dominance_dag)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
