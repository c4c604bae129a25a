"""Timing spans around the public functions of segtriples.

The tracer patches every namespace under ``segtriples`` that holds a
reference to a wrapped function, so internal calls (``is_admissible``
seen from ``classify``, ``validate_triple`` behind ``require_valid``)
are recorded as well as calls made by the benchmark.  Spans are folded
into per-name totals as they close: calls, total seconds and self
seconds (total minus the time covered by child spans).  Hot methods
that would drown in span overhead (``HalfInt.from_twice``, the term
``__hash__`` methods, ``JordanTriple.__init__``) only get call counters.

Recording is off until ``active`` is set; the worker switches it on for
timed operations only, so input construction and verification leave no
trace.
"""

from __future__ import annotations

import inspect
import sys
import time

VALIDATE = "triples.validate_triple"

# modules whose functions carry spans, in stack order (halfint has a
# counter only)
LAYERS = ("algebra", "structural", "lcalc", "triples", "classify", "config", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.spans = {}
        self.counts = {}

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; ``before(args, kwargs)`` runs untraced ahead
        of the call, ``after(token, frame, parent, result, exc)`` after it."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = None
            if before is not None:
                tracer.active = False
                try:
                    token = before(args, kwargs)
                finally:
                    tracer.active = True
            # frame: [child seconds, has a child other than validation, name]
            frame = [0.0, False, name]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                    if name != VALIDATE:
                        parent[1] = True
                if after is not None:
                    after(token, frame, parent, result, exc)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "segtriples" or name.startswith("segtriples."))]


def _public_functions():
    """(function, span name) for every function exported by
    ``segtriples.__all__`` and every public function of config and cli."""
    import segtriples
    import segtriples.cli
    import segtriples.config

    found = {}
    for name in segtriples.__all__:
        obj = getattr(segtriples, name, None)
        if inspect.isfunction(obj):
            found[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{name}"
    for mod in (segtriples.config, segtriples.cli):
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                found[obj] = f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
    return found


def _hooks(tracer):
    import segtriples
    from segtriples.lcalc import PreconditionError

    induce = segtriples.induce

    def expand_before(args, kwargs):
        seg, base, table = args[:3]
        memoize = kwargs.get("memoize", args[3] if len(args) > 3 else True)
        try:
            return bool(memoize) and induce(seg, base) in table
        except (TypeError, ValueError):
            return False

    def expand_after(hit, frame, parent, result, exc):
        if hit:
            tracer.bump("structural.expand_induced.hits")
        if exc is None:
            tracer.bump("structural.expand_induced.terms_out", len(result))

    def admissible_after(token, frame, parent, result, exc):
        if not frame[1]:
            tracer.bump("triples.is_admissible.hits")
        if parent is not None and parent[2] == "classify.enumerate_admissible":
            tracer.bump("classify.candidates")
            if exc is None and result is not None:
                tracer.bump("classify.admitted")

    def update_after(token, frame, parent, result, exc):
        if isinstance(exc, PreconditionError):
            tracer.bump("lcalc.jord_update.rejects")

    return {
        "structural.expand_induced": (expand_before, expand_after),
        "triples.is_admissible": (None, admissible_after),
        "lcalc.jord_update": (None, update_after),
    }


def install(tracer: Tracer) -> Tracer:
    """Patch the loaded segtriples modules; returns the tracer."""
    import segtriples

    hooks = _hooks(tracer)
    functions = _public_functions()
    modules = _package_modules()
    for fn, name in functions.items():
        wrapper = tracer.span(name, fn, *hooks.get(name, (None, None)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    fsum = segtriples.FormalSum
    terms = fsum.__dict__["terms"]
    fsum.terms = property(tracer.span("algebra.FormalSum.terms", terms.fget))
    fsum.__mul__ = tracer.span("algebra.FormalSum.__mul__", fsum.__dict__["__mul__"])

    half = segtriples.HalfInt
    from_twice = half.__dict__["from_twice"].__func__
    half.from_twice = classmethod(tracer.counter("halfint.from_twice", from_twice))
    for cls in (segtriples.Segment, segtriples.GLTerm, segtriples.GSpinTerm):
        cls.__hash__ = tracer.counter("algebra.hash", cls.__dict__["__hash__"])
    triple = segtriples.JordanTriple
    triple.__init__ = tracer.counter("triples.triple_built", triple.__dict__["__init__"])
    return tracer


def merge(into, trace):
    """Add one snapshot's spans and counts into an accumulator snapshot."""
    for name, (calls, total, own) in trace["spans"].items():
        row = into["spans"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += own
    for name, n in trace["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    return into


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, busy_s, startup_s=0.0):
    """Every per-layer metric named in BENCHMARK.json, from one snapshot.

    ``busy_s`` is the traced wall time of the timed operations; layer
    shares are self time over it.  ``startup_s`` is interpreter start
    and import time of cli children (zero for in-process workloads).
    """
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {}

    def both(metric, name):
        m[f"{metric}.calls"] = calls(name)
        m[f"{metric}.self_s"] = own(name)

    m["halfint.from_twice.calls"] = counts.get("halfint.from_twice", 0)
    m["algebra.hash.calls"] = counts.get("algebra.hash", 0)
    both("algebra.comult", "algebra.comult")
    both("algebra.formalsum_terms", "algebra.FormalSum.terms")
    both("algebra.formalsum_mul", "algebra.FormalSum.__mul__")
    both("structural.expand_induced", "structural.expand_induced")
    m["structural.expand_induced.terms_out"] = counts.get("structural.expand_induced.terms_out", 0)
    m["structural.expand_induced.memo_hit_ratio"] = _ratio(
        counts.get("structural.expand_induced.hits", 0), calls("structural.expand_induced"))
    both("structural.flatten_sum", "structural.flatten_sum")
    both("lcalc.jord_update", "lcalc.jord_update")
    m["lcalc.jord_update.reject_ratio"] = _ratio(
        counts.get("lcalc.jord_update.rejects", 0), calls("lcalc.jord_update"))
    both("lcalc.pole_scan", "lcalc.jordan_set_from_pole_orders")
    both("triples.validate", VALIDATE)
    both("triples.is_admissible", "triples.is_admissible")
    m["triples.is_admissible.memo_hit_ratio"] = _ratio(
        counts.get("triples.is_admissible.hits", 0), calls("triples.is_admissible"))
    for short in ("subordinate_reductions", "reduce_at", "is_alternated",
                  "dominating_extensions"):
        both(f"triples.{short}", f"triples.{short}")
    m["triples.triple_built.calls"] = counts.get("triples.triple_built", 0)
    both("classify.enumerate", "classify.enumerate_admissible")
    m["classify.candidates"] = counts.get("classify.candidates", 0)
    m["classify.admitted"] = counts.get("classify.admitted", 0)
    m["classify.admit_ratio"] = _ratio(m["classify.admitted"], m["classify.candidates"])
    for short in ("canonical_chain", "realize_chain", "dominance_edges"):
        both(f"classify.{short}", f"classify.{short}")
    both("config.load_config", "config.load_config")
    both("cli.main", "cli.main")
    m["cli.startup_s"] = startup_s
    reads = counts.get("cli.cache.hits", 0)
    m["cli.cache.hit_ratio"] = _ratio(reads, reads + counts.get("cli.cache.misses", 0))
    m["cli.cache.bytes_written"] = counts.get("cli.cache.bytes_written", 0)
    m["cli.cache.bytes_read"] = counts.get("cli.cache.bytes_read", 0)

    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in spans.items():
        layer = name.split(".", 1)[0]
        if layer in per_layer:
            per_layer[layer] += self_s
    for layer, self_s in per_layer.items():
        m[f"layer.{layer}.self_share"] = _ratio(self_s, busy_s)
    m["layer.startup.self_share"] = _ratio(startup_s, busy_s)
    m["layer.other.self_share"] = _ratio(
        busy_s - sum(per_layer.values()) - startup_s, busy_s)
    return m
