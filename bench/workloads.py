"""Seeded inputs and one measured round of each workload.

``plan`` turns (workload, seed, size) into plain JSON data without
importing segtriples, so the worker can time the import itself.  Each
``run_*`` function then performs one round in a fresh worker: it times
every operation through ``Round.call``, verifies every output outside
the timed region, and counts failures.  An expected domain result
(``PreconditionError`` on an out-of-range embedding, "not admissible")
is an answer, not a failure.

The expected counts and digests in ``EXPECT`` were taken from the
library at the commit that introduced this benchmark.  They are the
reference the program is checked against, never recomputed by it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "data" / "fixtures"
GOLDEN = HERE / "data" / "golden"

WORKLOADS = ("enumerate", "tower", "query", "cli")

# Highest whole percentile with at least ten samples beyond it in one
# round: 2051 chain round trips (enumerate), 388 expand_induced calls
# (tower), 1400 queries (query).  A cli session has 19 invocations and a
# run at least MIN_SESSIONS sessions, so the cli tail is taken over at
# least 114 samples.  The run pools its rounds, so the tail always has
# at least ten samples beyond it.
TAIL_PERCENTILE = {"enumerate": 99, "tower": 97, "query": 99, "cli": 91}
MIN_SESSIONS = 6

ENUM_WINDOWS = {"full": (9, 13), "tiny": (5, 7)}  # max_a over [r, q] at c0, over [r] at c17
TOWER_DEPTH = {"full": 3, "tiny": 2}
DEEP_LEVELS = {"full": 4, "tiny": 2}
QUERY_SIZES = {"full": range(4, 15), "tiny": range(4, 7)}
QUERY_CELL = {"full": (40, 10), "tiny": (2, 1)}  # admissibility and reduction queries per cell
QUERY_JORD = {"full": 300, "tiny": 10}
CLI_WINDOW = {"full": 7, "tiny": 3}
CLI_GOLDENS = {"full": 16, "tiny": 4}
LEAF_DEGREE = 3

EXPECT = {
    ("enumerate", "full"): {"main": (1785, "d31b5bbaa792b50f"), "pairs": (266, "9c2886a03cdd9f5f")},
    ("enumerate", "tiny"): {"main": (35, "06a188eb99a24eb8"), "pairs": (10, "333e31faa4757798")},
    ("tower", "full"): {"deep": (16920, 50625, 3060)},
    ("tower", "tiny"): {"deep": (165, 225, 120)},
    ("cli", "full"): {"enumerate": (247, "c4e50b17d9de5582"), "dag": (751, "cf4042174738d8e8")},
    ("cli", "tiny"): {"enumerate": (6, "e24cf1491de2e17c"), "dag": (12, "52a828f8bd2c59cb")},
}

# (golden file, exit code, argv with fixture names) as pinned by the test suite
GOLDEN_RUNS = [
    ("mu_rho.txt", 0, ["mu-star", "--config", "base.json", "--sigma", "c0", "--seg", "r:[0,0]"]),
    ("check_bad.txt", 1, ["check", "--config", "base.json", "--triple", "bad"]),
    ("enumerate_base.txt", 0, ["enumerate", "--config", "base.json"]),
    ("dag_even.txt", 0, ["dominance-dag", "--config", "dag_even.json"]),
    ("mu_half.txt", 0, ["mu-star", "--config", "base.json", "--sigma", "c0",
                        "--seg", "q:[-1/2,1/2]"]),
    ("mu_tower.txt", 0, ["mu-star", "--config", "base.json", "--sigma", "c0",
                         "--seg", "r:[0,0]", "--seg", "r:[1,1]"]),
    ("mu_fixture_tower.txt", 0, ["mu-star", "--config", "mu_fixture.json", "--sigma", "c0",
                                 "--seg", "r:[0,0]", "--seg", "r:[-1,1]"]),
    ("enumerate_c1.txt", 0, ["enumerate", "--config", "enum_c1.json"]),
    ("enumerate_maxa0.txt", 0, ["enumerate", "--config", "maxa0.json"]),
    ("check_demo.txt", 0, ["check", "--config", "base.json", "--triple", "demo"]),
    ("check_alt.txt", 0, ["check", "--config", "base.json", "--triple", "alt"]),
    ("check_notadm.txt", 0, ["check", "--config", "base.json", "--triple", "notadm"]),
    ("reduce_demo.txt", 0, ["reduce", "--config", "base.json", "--triple", "demo"]),
    ("chain_evenpair.txt", 0, ["chain", "--config", "base.json", "--triple", "evenpair"]),
    ("chain_pairsdemo.txt", 0, ["chain", "--config", "base.json", "--triple", "pairsdemo"]),
    ("jord_update_basic.txt", 0, ["jord-update", "--config", "base.json",
                                  "--x", "2", "--y", "1", "--base", "1,7"]),
]


# -- plain-data inputs -------------------------------------------------------


def _fresh_pair(rng, prefix):
    while True:
        a, b = (prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))
                for _ in range(2))
        if a != b:
            return sorted((a, b))


def seeded_names(rng):
    """Fresh ids for r, q, c0 and c17.  q sorts before r, as with the
    plain names, so the library visits symbols in the same order."""
    q, r = _fresh_pair(rng, "s")
    c0, c17 = _fresh_pair(rng, "c")
    return {"r": r, "q": q, "c0": c0, "c17": c17}


def canonical(text, names):
    """Map seeded ids in triple or DOT text back to r, q, c0 and c17."""
    back = {v: k for k, v in names.items()}
    syms = "|".join(re.escape(names[k]) for k in ("r", "q"))
    sups = "|".join(re.escape(names[k]) for k in ("c0", "c17"))
    text = re.sub(rf"(?<= )({syms}):", lambda m: back[m.group(1)] + ":", text)
    return re.sub(rf"cusp=({sups})(?= |$)", lambda m: "cusp=" + back[m.group(1)], text)


def digest(lines):
    """Order-insensitive digest of text lines: 16 hex digits of sha256."""
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()[:16]


def window_config(names, max_a):
    """r (odd, rank 1) and q (even, rank 2) over c0 = {} and c17 = {r: 1, 7},
    with the enumeration window [r, q] at c0 up to max_a."""
    return {
        "symbols": [{"id": names["r"], "rank": 1, "parity": "odd"},
                    {"id": names["q"], "rank": 2, "parity": "even"}],
        "supports": [{"id": names["c0"], "jord": {}},
                     {"id": names["c17"], "jord": {names["r"]: [1, 7]}}],
        "bounds": {"support": names["c0"], "symbols": [names["r"], names["q"]],
                   "max_a": max_a},
    }


PLAIN_NAMES = {"r": "r", "q": "q", "c0": "c0", "c17": "c17"}


def plan(workload, seed, size):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enumerate":
        names = seeded_names(rng)
        main, pairs = ENUM_WINDOWS[size]
        return {"names": names, "pairs_max_a": pairs, "order_seed": rng.randrange(2 ** 32),
                "config": window_config(names, main)}
    if workload == "tower":
        return {"towers": _towers(rng, TOWER_DEPTH[size]), "deep_levels": DEEP_LEVELS[size],
                "config": window_config(PLAIN_NAMES, 0)}
    if workload == "query":
        return {"queries": _queries(rng, size), "config": window_config(PLAIN_NAMES, 0)}
    if workload == "cli":
        names = seeded_names(rng)
        return {"names": names, "goldens": GOLDEN_RUNS[:CLI_GOLDENS[size]],
                "config": window_config(names, CLI_WINDOW[size])}
    raise ValueError(f"unknown workload {workload!r}")


def _towers(rng, depth_max):
    """Random towers in the proportions of the acceptance suite's
    criterion 4 (depth uniform in 1..3, span uniform in 0..3, left end
    uniform in -4..4).  Span patterns are stratified, and every symbol
    pattern occurs equally often at each depth, so that seeds differ in
    which towers they build but not in how much work those take."""
    towers = []
    for depth in range(1, depth_max + 1):
        spans = [p for p in itertools.product(range(4), repeat=depth)
                 for _ in range(4 ** (depth_max - depth))]
        syms = list(itertools.product("rq", repeat=depth)) * (len(spans) // 2 ** depth)
        rng.shuffle(syms)
        for span_pattern, sym_pattern in zip(spans, syms):
            towers.append([[sym, 2 * rng.randint(-4, 4) + (sym == "q"), span]
                           for sym, span in zip(sym_pattern, span_pattern)])
    rng.shuffle(towers)
    return towers


def _queries(rng, size):
    n_adm, n_red = QUERY_CELL[size]
    queries = []
    for n in QUERY_SIZES[size]:
        for cusp in ("c0", "c17"):
            for kind, count in (("admissible", n_adm), ("reductions", n_red)):
                splits = [(n + 1) * k // count for k in range(count)]
                rng.shuffle(splits)
                for k, n_r in enumerate(splits):
                    triple, plus = _random_triple(rng, cusp, n, (k + 0.5) / count, n_r)
                    queries.append({"kind": kind, "triple": triple, "plus": plus})
    for _ in range(QUERY_JORD[size]):
        queries.append({"kind": "jord", "embedding": _random_embedding(rng)})
    rng.shuffle(queries)
    return queries


def _binomial_quantile(m, q):
    """Smallest p with P(Binomial(m, 1/2) <= p) >= q."""
    acc = 0
    for p in range(m + 1):
        acc += math.comb(m, p)
        if acc >= q * 2 ** m:
            return p
    return m


def _random_triple(rng, cusp, n, q, n_r):
    """A valid triple with n blocks, and its adjacent pairs carrying +1
    as sorted (symbol, lower, upper) rows: over c0 n_r of the blocks at r
    and the rest at q, with single signs; over c17 all at r, with signs
    on adjacent pairs only.

    The admissibility search grows about exponentially with the number
    of +1 pairs, so that number is not left to chance: it is the q-th
    quantile of its distribution under uniformly random signs, placed
    on randomly chosen pairs.
    """
    if cusp == "c0":
        rows = [("r", sorted(rng.sample(range(1, 2 * n + 8, 2), n_r))),
                ("q", sorted(rng.sample(range(2, 2 * n + 8, 2), n - n_r)))]
    else:
        rows = [("r", sorted(rng.sample(range(1, 2 * n + 8, 2), n)))]
    pairs = [(s, lo, hi) for s, blocks in rows for lo, hi in zip(blocks, blocks[1:])]
    plus = set(rng.sample(range(len(pairs)), _binomial_quantile(len(pairs), q)))
    pair_signs = {key: 1 if i in plus else -1 for i, key in enumerate(pairs)}
    jord = [[s, a] for s, blocks in rows for a in blocks]
    plus_pairs = sorted([s, lo, hi] for (s, lo, hi), v in pair_signs.items() if v == 1)
    if cusp != "c0":
        return {"cusp": cusp, "jord": jord, "singles": [],
                "pairs": [[s, lo, hi, v] for (s, lo, hi), v in pair_signs.items()]}, plus_pairs
    singles = []
    for s, blocks in rows:
        sign = rng.choice((1, -1))
        for i, a in enumerate(blocks):
            if i:
                sign *= pair_signs[(s, blocks[i - 1], a)]
            singles.append([s, a, sign])
    return {"cusp": cusp, "jord": jord, "singles": singles, "pairs": []}, plus_pairs


def _random_embedding(rng):
    """(symbol, 2x, 2y, base blocks); x < 0 or a missing 2y-1 makes an
    out-of-range embedding that must be refused."""
    sym = rng.choice("rq")
    if sym == "r":
        twice_x = 2 * rng.randint(-1, 6)
        pool = range(1, 14, 2)
    else:
        twice_x = 2 * rng.randint(-1, 5) + 1
        pool = range(2, 13, 2)
    twice_y = twice_x - 2 * rng.randint(0, 6)
    return [sym, twice_x, twice_y, sorted(rng.sample(pool, rng.randint(0, 4)))]


# -- one round ---------------------------------------------------------------


# Machine speed.  On a shared host the same work can take up to twice as
# long from one second or minute to the next.  Each worker therefore
# samples the speed it runs at, by timing calibration_kernel every
# TICK_INTERVAL_S, and scales every timing to a reference machine on
# which the kernel takes REFERENCE_TICK_S: a time is multiplied by
# REFERENCE_TICK_S over the median kernel time within SPEED_WINDOW_S of
# it.
REFERENCE_TICK_S = 0.002
TICK_INTERVAL_S = 0.05
SPEED_WINDOW_S = 0.5


def calibration_kernel():
    """A fixed piece of pure-Python work: string formatting, dict updates
    and int arithmetic.  It makes one container object only, so it barely
    moves the cyclic collector's counts."""
    d = {}
    for i in range(4000):
        k = f"{i * 7919 % 1009}:{i % 131}"
        d[k] = d.get(k, 0) + 1
    return len(d)


class SpeedProbe:
    """Speed samples: ``took[i]`` is the time calibration_kernel took at
    ``at[i]``.  A sample is taken between operations once TICK_INTERVAL_S
    has passed since the last, and from a SIGALRM handler inside an
    operation that has already run that long; shorter operations are
    never interrupted.  ``spent`` is the time the samples took, which
    ``Round.call`` subtracts from the operation they interrupted."""

    def __init__(self):
        self.at = []
        self.took = []
        self.spent = 0.0
        self.op_start = None

    def sample(self):
        start = time.perf_counter()
        calibration_kernel()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took

    def between(self):
        if not self.at or time.perf_counter() - self.at[-1] >= TICK_INTERVAL_S:
            self.sample()

    def _on_alarm(self, signum, frame):
        begun = self.op_start
        if begun is not None and time.perf_counter() - max(begun, self.at[-1]) >= TICK_INTERVAL_S:
            self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S / 2, TICK_INTERVAL_S / 2)

    def stop(self):
        if signal.getsignal(signal.SIGALRM) == self._on_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, begin, end):
        """REFERENCE_TICK_S over the median sample within SPEED_WINDOW_S
        of [begin, end], widened to at least five samples."""
        at = self.at
        lo = bisect.bisect_left(at, begin - SPEED_WINDOW_S)
        hi = bisect.bisect_right(at, end + SPEED_WINDOW_S)
        while hi - lo < 5 and (lo > 0 or hi < len(at)):
            lo, hi = max(0, lo - 1), min(len(at), hi + 1)
        return REFERENCE_TICK_S / statistics.median(self.took[lo:hi])


class Round:
    """Timings, units of work and verification tallies of one round.

    ``ops`` are the operations the end-to-end metrics are about;
    ``side_s`` covers the ones only the traced run is about.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.ops = []  # (start, end, seconds, latency key or None, side)
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fn, *args, latency=True, side=False):
        """Time one operation; returns (result, unexpected exception).

        ``latency`` is True for an operation that is one latency sample,
        False for one that is none, or a key: the operations sharing a key
        are one sample, their shortest time.  A ``side`` operation is left
        out of busy time, and is a latency sample only through a key; it
        still counts in the traced run."""
        tracer, probe = self.tracer, self.probe
        if probe is not None:
            probe.between()
            probed = probe.spent
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        if probe is not None:
            probe.op_start = start
        try:
            result, exc = fn(*args), None
        except Exception as e:  # a failed operation is counted, not fatal
            result, exc = None, e
        end = time.perf_counter()
        elapsed = end - start
        if probe is not None:
            probe.op_start = None
            elapsed -= probe.spent - probed
        if tracer is not None:
            tracer.active = False
        if latency is True:
            latency = None if side else len(self.ops)
        elif latency is False:
            latency = None
        self.ops.append((start, end, elapsed, latency, side))
        return result, exc

    def timings(self):
        """Busy seconds and latency samples, scaled to the reference
        machine when there is a speed probe, and the unscaled busy and
        side-operation seconds."""
        scaled = [seconds * self.probe.scale(start, end) if self.probe else seconds
                  for start, end, seconds, _, _ in self.ops]
        samples = {}
        for t, (_, _, _, key, _) in zip(scaled, self.ops):
            if key is not None:
                samples[key] = min(t, samples.get(key, t))
        return {
            "busy_s": sum(t for t, op in zip(scaled, self.ops) if not op[4]),
            "raw_busy_s": sum(op[2] for op in self.ops if not op[4]),
            "side_s": sum(op[2] for op in self.ops if op[4]),
            "latencies": list(samples.values()),
        }

    def check(self, ok, what):
        """Count one verified operation; ``what`` (a string, or a function
        making one) describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what() if callable(what) else what)
        return ok


def _round_trip(S, t):
    return S.realize_chain(S.canonical_chain(t))


def run_enumerate(S, cfg, table, spec, rnd, ctx):
    names = spec["names"]
    r, q = cfg.symbols[names["r"]], cfg.symbols[names["q"]]
    bounds = cfg.bounds
    windows = (("main", cfg.supports[bounds["support"]], [r, q], bounds["max_a"]),
               ("pairs", cfg.supports[names["c17"]], [r], spec["pairs_max_a"]))
    enumerated = [(key,) + rnd.call(S.enumerate_admissible, cusp, symbols, max_a, latency=False)
                  for key, cusp, symbols, max_a in windows]
    found = [t for _, got, exc in enumerated if exc is None for t in got]
    random.Random(spec["order_seed"]).shuffle(found)
    # A round trip's latency is the shorter of two passes, so that a burst
    # of contention on the host, too short for the speed probe to see,
    # does not set the tail; throughput counts the first pass only.
    trips = [rnd.call(_round_trip, S, t, latency=("trip", i)) for i, t in enumerate(found)]
    again = [rnd.call(_round_trip, S, t, latency=("trip", i), side=True)
             for i, t in enumerate(found)]

    expect = EXPECT[("enumerate", ctx["size"])]
    for key, got, exc in enumerated:
        if rnd.check(exc is None, f"enumerate {key}: {exc!r}"):
            seen = (len(got), digest(canonical(S.triple_text(t), names) for t in got))
            rnd.check(seen == expect[key], f"enumerate {key}: got {seen}, want {expect[key]}")
    for t, (back, exc), (back2, exc2) in zip(found, trips, again):
        if rnd.check(exc is None and back == t and exc2 is None and back2 == t,
                     lambda: f"round trip of {S.triple_text(t)}: {exc!r} {exc2!r}"):
            rnd.units += 1


def _degree(gl):
    """GL degree of a term from the segment endpoints, independently of
    the library's own ``degree`` properties."""
    return sum(((s.b.twice - s.a.twice) // 2 + 1) * s.rho.rank for s in gl.segments)


def _expansion_ok(S, out, node, total):
    """Degree conserved term by term, and 1 (x) node the one unit-left
    term, with coefficient 1 (one pass; ``terms`` sorts on every access)."""
    unit_rows = []
    for (gl, obj), c in out.terms:
        if _degree(gl) + sum(_degree(t) for t in obj.gl_terms) + LEAF_DEGREE != total:
            return False
        if gl.is_unit:
            unit_rows.append(((gl, obj), c))
    return unit_rows == [((S.GLTerm.unit(), node), 1)]


def _gl_jacquet(S, segs):
    """m*(seg_1 x ... x seg_n): the product of the segment comultiplications."""
    out = S.FormalSum.of((S.GLTerm.unit(), S.GLTerm.unit()))
    for seg in segs:
        out = out * S.comult(seg)
    return out


def _gl_jacquet_ok(S, out, segs):
    whole = S.GLTerm.of(*segs)
    degree = _degree(whole)
    return (out.total == math.prod(seg.length + 1 for seg in segs)
            and out.coefficient((S.GLTerm.unit(), whole)) == 1
            and all(_degree(left) + _degree(right) == degree for (left, right), _ in out.terms))


def run_tower(S, cfg, table, spec, rnd, ctx):
    """Throughput and latency are those of ``expand_induced`` alone; the
    m* products and ``flatten_sum`` are verified and traced, but timed as
    side operations."""
    leaf = S.GSpinTerm.cuspidal("c0")
    expansions = []  # (result, exception, node, total degree)
    products = []  # (result, exception, segments)
    for levels in spec["towers"]:
        cur, total, segs = leaf, LEAF_DEGREE, []
        for sym, twice_a, span in levels:
            seg = S.Segment(cfg.symbols[sym], S.HalfInt.from_twice(twice_a),
                            S.HalfInt.from_twice(twice_a + 2 * span))
            total += seg.degree
            expansions.append(rnd.call(S.expand_induced, seg, cur, table)
                              + (S.induce(seg, cur), total))
            cur = expansions[-1][2]
            segs.append(seg)
        products.append(rnd.call(_gl_jacquet, S, segs, side=True) + (segs,))

    deep_table = cfg.expansion_table()
    seg = S.Segment(cfg.symbols["r"], -1, 2)
    cur, total = leaf, LEAF_DEGREE
    for _ in range(spec["deep_levels"]):
        total += seg.degree
        expansions.append(rnd.call(S.expand_induced, seg, cur, deep_table)
                          + (S.induce(seg, cur), total))
        cur = expansions[-1][2]
    top = expansions[-1][0]
    flat, flat_exc = rnd.call(S.flatten_sum, top, side=True) if top else (None, None)

    for out, exc, node, total in expansions:
        if rnd.check(exc is None and _expansion_ok(S, out, node, total),
                     lambda: f"expansion of {node}: {exc!r}"):
            rnd.units += len(out)
    for out, exc, segs in products:
        rnd.check(exc is None and _gl_jacquet_ok(S, out, segs), lambda: f"m* of {segs}: {exc!r}")
    seen = (len(top), top.total, len(flat)) if flat is not None else (flat_exc,)
    want = EXPECT[("tower", ctx["size"])]["deep"]
    rnd.check(seen == want, f"deep tower: got {seen}, want {want}")


def _admissibility(S, t):
    problems = S.validate_triple(t)
    chain = S.is_admissible(t)
    try:
        canon = S.canonical_chain(t)
    except S.NotAdmissibleError:
        return problems, chain, None, None
    return problems, chain, canon, S.realize_chain(canon)


def _jord_query(S, rho, x, y, base, z_max):
    emb = S.EmbeddingDatum(rho, x, y, base)
    try:
        updated = S.jord_update(emb)
    except S.PreconditionError as exc:
        updated = exc
    return updated, S.jordan_set_from_pole_orders(emb, z_max)


def _build_triple(S, cfg, data):
    sym = cfg.symbols
    return S.make_triple(
        cfg.supports[data["cusp"]],
        [(sym[s], a) for s, a in data["jord"]],
        {(sym[s], a): v for s, a, v in data["singles"]},
        {(sym[s], lo, hi): v for s, lo, hi, v in data["pairs"]})


def run_query(S, cfg, table, spec, rnd, ctx):
    answers = []
    for query in spec["queries"]:
        if query["kind"] == "jord":
            sym, twice_x, twice_y, base = query["embedding"]
            z_max = max([twice_x + 1, 1 - twice_y, 1] + base) + 2
            answers.append((None,) + rnd.call(
                _jord_query, S, cfg.symbols[sym], S.HalfInt.from_twice(twice_x),
                S.HalfInt.from_twice(twice_y), base, z_max))
        else:
            t = _build_triple(S, cfg, query["triple"])
            if query["kind"] == "admissible":
                answers.append((t,) + rnd.call(_admissibility, S, t))
            else:
                answers.append((t,) + rnd.call(S.subordinate_reductions, t))

    for query, (t, got, exc) in zip(spec["queries"], answers):
        kind = query["kind"]
        if exc is not None:
            ok = False
        elif kind == "jord":
            _, twice_x, twice_y, base = query["embedding"]
            refused = twice_x < 0 or (twice_y > 0 and twice_y - 1 not in base)
            ok = isinstance(got[0], S.PreconditionError) if refused else got[0] == got[1]
        elif kind == "admissible":
            problems, chain, canon, back = got
            ok = problems == [] and (chain is None) == (canon is None) \
                and (canon is None or back == t)
        else:
            ok = [[red.rho.id, red.lower, red.upper] for red in got] == query["plus"] and all(
                red.result.size == t.size - 2 and not S.validate_triple(red.result)
                for red in got)
        if rnd.check(ok, lambda: f"{kind} {query}: {exc!r} {got}"):
            rnd.units += 1


def _cli_runs(spec, config_path):
    runs = []
    for name, code, argv in spec["goldens"]:
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        runs.append((name, code, argv))
    window = ["--config", str(config_path)]
    runs += [("window cold enumerate", 0, ["enumerate"] + window),
             ("window warm enumerate", 0, ["enumerate"] + window),
             ("window warm dominance-dag", 0, ["dominance-dag"] + window)]
    return runs


def run_cli(S, cfg, table, spec, rnd, ctx):
    """One session: every golden run, then a cold and a warm enumerate
    and a warm dominance-dag of the seeded window, each in a fresh
    ``python -m segtriples`` process sharing one fresh cache directory."""
    workdir = Path(ctx["workdir"])
    env = {k: v for k, v in os.environ.items() if k != "SEGTRIPLES_CACHE_DIR"}
    env["SEGTRIPLES_CACHE_DIR"] = str(workdir / "cache")
    tracer = ctx.get("child_tracer")
    names = spec["names"]
    want = EXPECT[("cli", ctx["size"])]
    cold = None
    for i, (label, code, argv) in enumerate(_cli_runs(spec, ctx["config_path"])):
        if tracer is None:
            cmd = [sys.executable, "-m", "segtriples"] + argv
        else:
            trace_path = workdir / f"trace-{i}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path)] + argv
        proc, exc = rnd.call(_run_process, cmd, env, ctx["root"])
        if exc is not None or proc.returncode != code:
            rnd.check(False, f"{label}: exit {getattr(proc, 'returncode', None)} {exc!r}")
            continue
        out = proc.stdout.decode("utf-8")
        if label.startswith("window"):
            lines = out.splitlines()
            if label.endswith("cold enumerate"):
                cold = out
                seen = (len(lines), digest(canonical(line, names) for line in lines))
                ok = seen == want["enumerate"] and lines == sorted(lines)
            elif label.endswith("warm enumerate"):
                ok = out == cold
            else:
                seen = (len(lines), digest(canonical(line, names) for line in lines))
                ok = seen == want["dag"]
        else:
            ok = proc.stdout == (GOLDEN / label).read_bytes()
        if rnd.check(ok, f"{label}: output differs"):
            rnd.units += 1
        if tracer is not None:
            tracer(trace_path, rnd.ops[-1][2])


def _run_process(cmd, env, cwd):
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=120)


RUNNERS = {"enumerate": run_enumerate, "tower": run_tower, "query": run_query, "cli": run_cli}
