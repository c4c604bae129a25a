"""Jacquet-module expansion of segments induced to the tower of groups.

An object of the tower grade is a stack of GL factors riding on a named
base object (a cuspidal symbol or a fixture standing for a known
representation).  Its expansion lives in the tensor grade
GL (x) tower and records, level by level, what the normalized Jacquet
restriction sees.  The expansion of an induced object is computed from
the expansion of its base by the structural formula: a double sum over
the ways the inducing segment can shed a contragredient prefix and a
plain suffix.  Every loop here walks sums unordered.

``register`` checks every entry handed to it in full.  The base rows
are valid and the construction makes valid terms, so ``expand_induced``
checks only the unit-left rule and ``induce`` only its top, and both
build through the trusted builders.  A row of ``expand_induced`` costs
one product, one key and one store: a shed term has at most two
segments, so ``algebra._placed`` joins them to tau's key-sorted run, or
puts them into it at their ``bisect_right`` positions, instead of merging
two runs; the kept segment goes on each base leg in one
``GSpinTerm._trusted`` call; a row
of a pair i < j is stored unseen, since no other row can equal it; and a
row of a pair i = j is hashed once, by ``setdefault``, unless it meets
an earlier row.

``expand_induced``, ``flatten_sum`` and ``classify.enumerate_admissible``
pause the cyclic garbage collector, process-wide for the length of the
call (a memo hit pauses nothing).  Objects are frozen, hash their key
once, when built, and refer only to older values, tuples, strings and
ints, so no build makes a reference cycle and refcounting frees every
temporary.  What a build keeps would survive every young and middle
pass, so when the call turns the collector back on it first moves every
tracked object to the oldest generation (``gc.freeze`` then
``gc.unfreeze``, which splice lists) and the allocation count starts
again from zero: only a full collection visits the kept values, and no
pass over them runs at the first allocation after the call.  The move
is process-wide too: the caller's young objects are promoted with the
build's, so a young reference cycle of the caller is freed at the next
full collection instead of the next young one.  A caller that has
frozen objects keeps them frozen: the move is skipped, and the
collector only turned back on.  Asking whether any are frozen
(``gc.get_freeze_count``) walks every frozen object, once per call that
builds: it costs nothing when none are, and about 12.6 ms a call with
1,011,609 frozen (Python 3.11.7, 2-vCPU Xeon).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from operator import attrgetter

from .algebra import FormalSum, GLTerm, GradeError, Segment, SizeLimitError, _immutable, _placed, _segment_terms

# The most base rows one expansion visits; depth 5 of r:[-1,2] over a cuspidal leaf visits 253,800.
MAX_ROWS = 1_000_000


class GSpinTerm:
    """A formal induced object: gl_terms[0] x gl_terms[1] x ... |x base.

    The base is a bare name; cuspidal leaves have an empty stack.  The
    stack order records how the object was built, which is convenient
    for memoization; ``flattened`` forgets it, since products commute in
    the Grothendieck group.  ``key`` is the tuple of the stack's GL keys
    and the base; it decides equality, hash and canonical order, and its
    hash is computed once, in ``_trusted``, through which the constructor
    fills after its checks.  Objects are frozen.
    """

    __slots__ = ("gl_terms", "base", "key", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, gl_terms, base: str):
        gl_terms = tuple(gl_terms)
        for t in gl_terms:
            if not isinstance(t, GLTerm):
                raise TypeError("gl_terms must contain GLTerm objects")
            if t.is_unit:
                raise ValueError("unit GL factors are not stored on the stack")
        if not isinstance(base, str) or not base:
            raise ValueError("base must be a nonempty name")
        return cls._trusted(gl_terms, base, tuple(t.key for t in gl_terms))

    @classmethod
    def _trusted(cls, gl_terms: tuple, base: str, stack_key: tuple) -> "GSpinTerm":
        """An object from a stack of nonunit GL terms and the tuple of
        their keys; nothing is checked."""
        out = object.__new__(cls)
        key = (stack_key, base)
        _set_gl_terms(out, gl_terms)
        _set_base(out, base)
        _set_key(out, key)
        _set_hash(out, hash(key))
        return out

    def _on_top(self, top: GLTerm) -> "GSpinTerm":
        """``top``, a nonunit GL term, put on this object's stack."""
        return GSpinTerm._trusted((top,) + self.gl_terms, self.base, (top.key,) + self.key[0])

    @classmethod
    def cuspidal(cls, name: str) -> "GSpinTerm":
        return cls((), name)

    @property
    def is_cuspidal(self) -> bool:
        return not self.gl_terms

    def flattened(self) -> "GSpinTerm":
        """Merge the stack into one multiset; canonical up to commutation."""
        if len(self.gl_terms) < 2:
            return self
        segs = tuple(sorted([s for t in self.gl_terms for s in t.segments], key=_segment_key))
        keys = tuple(map(_segment_key, segs))
        return GSpinTerm._trusted((GLTerm._trusted(segs, keys),), self.base, (keys,))

    def degree(self, leaf_degree=None) -> int:
        """GL degree of the stack plus the declared degree of the base."""
        d = sum(t.degree for t in self.gl_terms)
        if leaf_degree:
            d += leaf_degree.get(self.base, 0)
        return d

    def __eq__(self, other):
        if not isinstance(other, GSpinTerm):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def __str__(self, gl_text=str):
        """The stack's GL terms, each written by ``gl_text``, then the base, joined by " |x "."""
        return " |x ".join([*map(gl_text, self.gl_terms), self.base])

    def __repr__(self):
        return f"GSpinTerm({list(self.gl_terms)!r}, {self.base!r})"


_segment_key = attrgetter("key")
_set_gl_terms = GSpinTerm.gl_terms.__set__
_set_base = GSpinTerm.base.__set__
_set_key = GSpinTerm.key.__set__
_set_hash = GSpinTerm._hash.__set__


def induce(top, obj: GSpinTerm) -> GSpinTerm:
    """Put a segment or GL term on top of an object; the unit is dropped."""
    if isinstance(top, Segment):
        top = GLTerm.of(top)
    if not isinstance(top, GLTerm):
        raise TypeError("can only induce from a Segment or GLTerm")
    if top.is_unit:
        return obj
    return obj._on_top(top)


def _check_unit_rows(obj: GSpinTerm, unit_rows: list):
    if unit_rows != [(obj, 1)]:
        raise ValueError("an expansion must contain exactly one unit-left term, "
                         "1 (x) the object itself, with coefficient 1")


def _check_entry(obj: GSpinTerm, expansion: FormalSum):
    unit_rows, graded = [], True
    for t, c in expansion:
        gl_left = isinstance(t, tuple) and len(t) == 2 and isinstance(t[0], GLTerm)
        graded = graded and gl_left and isinstance(t[1], GSpinTerm)
        if gl_left and t[0].is_unit:
            unit_rows.append((t[1], c))
    _check_unit_rows(obj, unit_rows)
    if not graded:
        raise GradeError("expansion terms must be GL (x) tower pairs")


class ExpansionTable:
    """Known Jacquet expansions, keyed by the object they expand.

    Cuspidal leaves expand to exactly 1 (x) themselves; fixture entries
    may declare anything satisfying the unit-left rule.  The table also
    serves as the memo for ``expand_induced``: keys are structural, so
    the same stack built the same way is computed once.  Each key is
    registered at most once; a second ``register`` raises.
    ``expand_induced`` stores the new nodes it builds without ``register``.
    """

    def __init__(self):
        self._rows = {}

    def add_cuspidal(self, name: str) -> GSpinTerm:
        leaf = GSpinTerm.cuspidal(name)
        self.register(leaf, FormalSum.of((GLTerm.unit(), leaf), 1))
        return leaf

    def register(self, obj: GSpinTerm, expansion: FormalSum):
        _check_entry(obj, expansion)
        if obj.is_cuspidal and len(expansion) != 1:
            # a cuspidal leaf restricts to nothing but itself
            raise ValueError("a cuspidal entry must be exactly 1 (x) itself")
        if obj in self._rows:
            raise ValueError(f"an expansion for {obj} is already registered")
        self._rows[obj] = expansion

    def lookup(self, obj: GSpinTerm) -> FormalSum:
        try:
            return self._rows[obj]
        except KeyError:
            raise ValueError(f"no expansion registered for {obj}") from None

    def __contains__(self, obj) -> bool:
        return obj in self._rows


@contextmanager
def _collector_paused():
    """Disable the cyclic collector; on exit re-enable it if it was on.

    After a build that completes, and before re-enabling, every tracked
    object moves to the oldest generation and the young count resets,
    unless the caller has frozen objects, which stay frozen; asking walks
    every frozen object (see the module docstring).  A collector the caller
    left disabled stays disabled and untouched."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        if enabled and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


def expand_induced(seg: Segment, base: GSpinTerm, table: ExpansionTable) -> FormalSum:
    """Expansion of the object obtained by inducing ``seg`` over ``base``.

    Write the segment as [nu^(-k) rho, nu^l rho].  For every pair
    i <= j drawn from {-k-1, ..., l}, every term tau (x) s' of the base
    expansion contributes

        [nu^(-i) rho, nu^k rho] x [nu^(j+1) rho, nu^l rho] x tau
            (x) [nu^(i+1) rho, nu^j rho] |x s',

    where segments of span -1 evaporate (they are units).  Degrees are
    conserved term by term, and the unique unit-left term is
    1 (x) (seg |x base) with coefficient one; that rule is checked with
    ``register``'s message, and the expansion is stored in ``table``
    without the rest of ``register``'s checks, which the construction
    meets.  A node already there is looked up.  Over ``MAX_ROWS`` rows
    to visit, (pairs i <= j) x base rows, raise ``SizeLimitError`` first.
    """
    if seg.is_empty:
        raise ValueError("induction by the empty segment expands nothing new")
    _, lo, hi = seg.key  # doubled endpoints; 2i, 2j run over lo-2, ..., hi
    node = base._on_top(GLTerm._trusted((seg,), (seg.key,)))
    if (known := table._rows.get(node)) is not None:
        return known
    base_rows = table.lookup(base)
    n = (hi - lo) // 2 + 2  # indices i, one more than the segment's length
    if (visits := n * (n + 1) // 2 * len(base_rows)) > MAX_ROWS:
        raise SizeLimitError(f"the expansion visits {visits} base rows, over the limit of {MAX_ROWS}")
    with _collector_paused():
        # base rows grouped by their GL leg tau, so each product is placed once,
        # each naming its induced leg by its index in ``legs``
        by_tau, legs = {}, {}
        for (tau, sprime), c in base_rows:
            by_tau.setdefault(tau, []).append((legs.setdefault(sprime, len(legs)), c))
        legs = list(legs)
        # each leg's stack, read once, on which the kept term goes
        taus, rows = by_tau.keys(), by_tau.values()
        stacks = [(s.gl_terms, s.base, s.key[0]) for s in legs]
        on_stack = GSpinTerm._trusted
        # every base has one unit-left row, so a base with one GL leg tau has
        # that row alone (a cuspidal leaf does): each product is the shed term
        lone = len(taus) == 1
        unit, term = _segment_terms(seg.rho)
        # for 2i = lo - 2 + 2p, sheds[p] holds [-i, k] and [i+1, l]
        sheds = [(term(-i, -lo), term(i + 2, hi)) for i in range(lo - 2, hi + 1, 2)]
        # pairs i < j first: the kept segment on top names the pair, and the
        # shed term cancels, so their rows are distinct and stored unseen
        out = {}
        for p, (shed_left, _) in enumerate(sheds):
            for q in range(p + 1, n):
                shed = shed_left * sheds[q][1]
                kept = term(lo + 2 * p, lo + 2 * q - 2)
                top, top_key = (kept,), (kept.key,)
                on_top = [on_stack(top + gl_terms, name, top_key + stack_key)
                          for gl_terms, name, stack_key in stacks]
                if not shed.segments:  # the one pair whose rows may be unit-left
                    _check_unit_rows(node, [(on_top[leg], c) for leg, c in by_tau.get(unit, ())])
                for gl, tau_rows in zip((shed,) if lone else _placed(shed, taus), rows):
                    for leg, c in tau_rows:
                        out[gl, on_top[leg]] = c
        # i = j: nothing is kept, so a row may meet one of an earlier pair;
        # most are new, so each is hashed once by setdefault, and only a row
        # that met one (the length is unchanged) is looked up again to add
        for shed_left, shed_right in sheds:
            shed = shed_left * shed_right
            for gl, tau_rows in zip((shed,) if lone else _placed(shed, taus), rows):
                for leg, c in tau_rows:
                    size = len(out)
                    seen = out.setdefault(key := (gl, legs[leg]), c)
                    if len(out) == size:
                        out[key] = seen + c
        result = table._rows[node] = FormalSum._trusted(out)
    return result


def flatten_sum(expansion: FormalSum) -> FormalSum:
    """Forget stack order on every induced leg; sums from different
    build orders of the same object agree after this."""
    flat, forms = {}, {}  # each distinct leg -> its form, one object per form
    with _collector_paused():
        for obj in {obj for (_, obj), _ in expansion}:
            form = obj.flattened()
            flat[obj] = forms.setdefault(form, form)
        # the coefficients are a sum's, so valid; each row is hashed once unless it meets another
        out = {}
        for (gl, obj), c in expansion:
            size = len(out)
            seen = out.setdefault(key := (gl, flat[obj]), c)
            if len(out) == size:
                out[key] = seen + c
        return FormalSum._trusted(out)


def degree_conserved(expansion: FormalSum, total: int, leaf_degree=None) -> bool:
    """True iff every term's GL degree plus induced-leg degree is ``total``."""
    return all(gl.degree + obj.degree(leaf_degree) == total for (gl, obj), _ in expansion)
