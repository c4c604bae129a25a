"""Command line front end.

Every subcommand takes --config pointing at a JSON run configuration
(see config.py) and prints deterministic plain text, so outputs can be
diffed across runs.  Each ``_cmd_*`` returns its exit status and its
lines, lazily where the output grows with the input; ``_write`` alone
writes them to stdout, in batches of ``_BATCH_LINES`` lines.  ``enumerate``
and ``dominance-dag`` join each triple's line once from the items of the
stream ``classify._in_text_order`` builds; ``enumerate`` builds no triple.
Exit status: 0 on success, 1 on a domain error (invalid triple,
inadmissible input, precondition failure), 2 on a usage or config error
(bad flags, unknown names, malformed specs, oversized input), and 141
(128 + SIGPIPE, as a shell reports a process that signal ends) when the
reader closes stdout before all output is written, as ``| head`` does,
for every command and buffered or not (``PYTHONUNBUFFERED``); the rest
of the output is then dropped, and no message is printed.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .algebra import EVEN, ODD, CuspidalSymbol, SizeLimitError, render_term
from .classify import _edges, _in_text_order, _merged, _row_maps, canonical_chain, chain_text
from .config import ConfigError, RunConfig, load_config, parse_segment_spec
from .halfint import HalfInt, _parse_int
from .lcalc import EmbeddingDatum, jord_update
from .structural import GSpinTerm, _collector_paused, expand_induced, induce
from .triples import (JordanTriple, NotAdmissibleError, _line, _parse_triple_record, _written,
                      subordinate_reductions, triple_text, validate_triple)


EXIT_PIPE_CLOSED = 141
# the lines one write to stdout takes
_BATCH_LINES = 1024


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


def _once(write):
    """``write``, with each distinct value's text written once and then looked up."""
    texts = {}
    return lambda value: texts.get(value) or texts.setdefault(value, write(value))


# -- subcommands -----------------------------------------------------------


def _cmd_mu_star(cfg: RunConfig, args):
    _support(cfg, args.sigma)
    table = cfg.expansion_table()
    obj = GSpinTerm.cuspidal(args.sigma)
    expansion = None
    for text in args.seg:
        seg = _segment(cfg, text)
        expansion = expand_induced(seg, obj, table)
        obj = induce(seg, obj)
    # each distinct segment, GL term and induced leg is written once
    seg_text = _once(str)
    gl_text = _once(lambda gl: gl.__str__(seg_text))
    leg_text = _once(lambda leg: leg.__str__(gl_text))
    return 0, (render_term((gl_text(gl), leg_text(leg)), coeff) for (gl, leg), coeff in expansion.terms)


def _enumerate(cfg: RunConfig, values):
    """The config's support, and its window's triples with ``values``, from ``classify._in_text_order``."""
    if cfg.bounds is None:
        raise ConfigError("this command needs a bounds section in the config")
    cusp = cfg.supports[cfg.bounds["support"]]
    return cusp, _in_text_order(cusp, values, [cfg.symbols[n] for n in cfg.bounds["symbols"]],
                                cfg.bounds["max_a"], cfg.bounds["max_jord"], cfg.bounds["jord_sets"])


def _cmd_enumerate(cfg: RunConfig, args):
    cusp, found = _enumerate(cfg, _written)
    return 0, (_line(cusp, parts) for parts in found)


def _cmd_check(cfg: RunConfig, args):
    t = _resolve_triple(cfg, args)
    if problems := validate_triple(t):
        return 1, [f"violation: {p}" for p in problems]
    try:
        chain = canonical_chain(t)
    except NotAdmissibleError:
        return 0, ["not admissible"]
    step = "step" if len(chain.steps) == 1 else "steps"
    return 0, [f"admissible, {len(chain.steps)} {step}", chain_text(chain)]


def _cmd_reduce(cfg: RunConfig, args):
    t = _resolve_triple(cfg, args)
    return 0, [f"{red.rho.id}:{red.lower}:{red.upper} -> {triple_text(red.result)}"
               for red in subordinate_reductions(t)]


def _cmd_chain(cfg: RunConfig, args):
    return 0, [chain_text(canonical_chain(_resolve_triple(cfg, args)))]


def _cmd_jord_update(cfg: RunConfig, args):
    try:
        x = HalfInt.parse(args.x)
        y = HalfInt.parse(args.y)
        blocks = frozenset(_parse_int(part.strip(), "block") for part in args.base.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.rho is not None:
        rho = _symbol(cfg, args.rho)
    else:
        rho = CuspidalSymbol("auto", 1, ODD if x.is_integer else EVEN)
    updated = jord_update(EmbeddingDatum(rho, x, y, blocks))
    return 0, ["{" + ", ".join(str(a) for a in sorted(updated)) + "}"]


def _cmd_dominance_dag(cfg: RunConfig, args):
    cusp, found = _enumerate(cfg, lambda *entry: zip(_row_maps(*entry), _written(*entry)))
    texts, lines = {}, []
    with _collector_paused():
        for maps, parts in (zip(*values) for values in found):
            lines.append(texts.setdefault(JordanTriple._of_rows(cusp, _merged(maps)), _line(cusp, parts)))
    return 0, itertools.chain(["digraph dominance {"], (f'  "{text}";' for text in lines),
                              (f'  "{parent}" -> "{child}";' for parent, child in _edges(texts)), ["}"])


def _write(lines) -> None:
    """Write each line and a newline to stdout, ``_BATCH_LINES`` lines to a write: as bytes in
    the stream's encoding to its buffer until it takes them all (an unbuffered one may take
    part of a write), or as text to a stream with no buffer, such as ``io.StringIO``."""
    out, lines = getattr(sys.stdout, "buffer", None), iter(lines)
    for batch in iter(lambda: list(itertools.islice(lines, _BATCH_LINES)), []):
        text = "\n".join(batch) + "\n"
        if out is None:
            sys.stdout.write(text)
            continue
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[out.write(data):]


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

    for name, func, what in (("check", _cmd_check, "validate a triple and report admissibility"),
                             ("reduce", _cmd_reduce, "list the one-step subordinations of a triple"),
                             ("chain", _cmd_chain, "print the canonical reduction chain of a triple")):
        p = sub.add_parser(name, parents=[common], help=what)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--triple", help="name of a triple from the config")
        group.add_argument("--text", help="triple in canonical text form")
        p.set_defaults(func=func)

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
        code, lines = args.func(cfg, args)
        _write(lines)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left of stdout to devnull, so the
        # flush at shutdown is quiet too, and exit as a process SIGPIPE ends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except (ConfigError, UsageError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
